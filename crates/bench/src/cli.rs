//! Shared command-line parsing for the bench binaries.
//!
//! Every campaign binary (`campaign`, `chaos`, `fault_sweep`, the
//! figure binaries) takes the same shape of flags — `--out DIR`,
//! `--resume`, `--seed S`, budget knobs — and used to hand-roll the
//! same scan-and-exit loop. [`Args`] is that loop, once: a positional
//! scanner with typed [`CliError`]s, where every malformed invocation
//! exits with code 2 (the usage/environment discipline: 0 = success,
//! 1 = a gate failed, 2 = the run never validly started, 3 =
//! [`EXIT_CELL_BUDGET`](cpc_workload::figures::EXIT_CELL_BUDGET)).

use cpc_workload::journal::{Journal, Recovery};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Exit code for usage and environment errors.
pub const EXIT_USAGE: i32 = 2;

/// A typed usage error. Every variant is fatal with [`EXIT_USAGE`];
/// the type exists so tests (and callers that want to recover) see
/// *which* way an invocation was malformed, not a formatted string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that takes a value appeared last, or its value was
    /// swallowed by another flag.
    MissingValue {
        /// The flag missing its value.
        flag: String,
    },
    /// A flag's value did not parse.
    InvalidValue {
        /// The flag whose value was rejected.
        flag: String,
        /// The rejected text.
        value: String,
        /// What the flag wanted, e.g. "an integer cell count".
        expected: &'static str,
    },
    /// Arguments nothing consumed.
    UnknownArgs {
        /// The leftover arguments, in order.
        args: Vec<String>,
    },
    /// A structurally valid combination that makes no sense, e.g.
    /// `--resume` without `--journal`.
    Conflict {
        /// Human-readable explanation.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            CliError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} requires {expected} (got {value:?})"),
            CliError::UnknownArgs { args } => write!(f, "unknown argument(s): {}", args.join(" ")),
            CliError::Conflict { message } => f.write_str(message),
        }
    }
}

/// An argument scanner over one invocation. Flags are consumed by the
/// accessor methods in any order; [`Args::finish`] rejects whatever
/// was left. `--help`/`-h` print the usage string and exit 0.
pub struct Args {
    tool: &'static str,
    usage: &'static str,
    argv: Vec<String>,
    taken: Vec<bool>,
}

impl Args {
    /// Scans `std::env::args` (program name skipped).
    pub fn parse(tool: &'static str, usage: &'static str) -> Self {
        Self::from_vec(tool, usage, std::env::args().skip(1).collect())
    }

    /// Scans an explicit vector (tests).
    pub fn from_vec(tool: &'static str, usage: &'static str, argv: Vec<String>) -> Self {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        let taken = vec![false; argv.len()];
        Args {
            tool,
            usage,
            argv,
            taken,
        }
    }

    /// Reports `err` and the usage line, then exits with [`EXIT_USAGE`].
    pub fn die(&self, err: CliError) -> ! {
        eprintln!("{}: {err}\n{}", self.tool, self.usage);
        std::process::exit(EXIT_USAGE);
    }

    fn position(&self, name: &str) -> Option<usize> {
        (0..self.argv.len()).find(|&i| !self.taken[i] && self.argv[i] == name)
    }

    /// Consumes every occurrence of a bare flag; true when present.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut found = false;
        while let Some(i) = self.position(name) {
            self.taken[i] = true;
            found = true;
        }
        found
    }

    /// Consumes `name VALUE`; `None` when absent.
    pub fn value(&mut self, name: &str) -> Option<String> {
        match self.try_value(name) {
            Ok(v) => v,
            Err(e) => self.die(e),
        }
    }

    fn try_value(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let Some(i) = self.position(name) else {
            return Ok(None);
        };
        self.taken[i] = true;
        match self.argv.get(i + 1) {
            Some(v) if !self.taken[i + 1] => {
                self.taken[i + 1] = true;
                Ok(Some(v.clone()))
            }
            _ => Err(CliError::MissingValue { flag: name.into() }),
        }
    }

    /// Consumes `name VALUE` and parses it; `None` when absent.
    pub fn parsed<T: FromStr>(&mut self, name: &str, expected: &'static str) -> Option<T> {
        match self.try_parsed(name, expected) {
            Ok(v) => v,
            Err(e) => self.die(e),
        }
    }

    fn try_parsed<T: FromStr>(
        &mut self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<T>, CliError> {
        match self.try_value(name)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| CliError::InvalidValue {
                flag: name.into(),
                value: v,
                expected,
            }),
        }
    }

    /// Rejects a combination the scanner cannot see structurally.
    pub fn conflict(&self, message: impl Into<String>) -> ! {
        self.die(CliError::Conflict {
            message: message.into(),
        })
    }

    /// Rejects an invocation selecting more than one of a set of
    /// mutually exclusive modes. `selected` pairs each mode flag with
    /// whether the invocation chose it.
    pub fn exclusive(&self, selected: &[(&str, bool)]) {
        if let Err(e) = Self::try_exclusive(selected) {
            self.die(e);
        }
    }

    fn try_exclusive(selected: &[(&str, bool)]) -> Result<(), CliError> {
        let on: Vec<&str> = selected
            .iter()
            .filter(|(_, chosen)| *chosen)
            .map(|(flag, _)| *flag)
            .collect();
        if on.len() > 1 {
            Err(CliError::Conflict {
                message: format!("{} are mutually exclusive", on.join(" and ")),
            })
        } else {
            Ok(())
        }
    }

    /// Fails on anything no accessor consumed.
    pub fn finish(self) {
        if let Err(e) = self.try_finish() {
            self.die(e);
        }
    }

    fn try_finish(&self) -> Result<(), CliError> {
        let leftover: Vec<String> = (0..self.argv.len())
            .filter(|&i| !self.taken[i])
            .map(|i| self.argv[i].clone())
            .collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(CliError::UnknownArgs { args: leftover })
        }
    }
}

/// Opens (or resumes) a per-mode verdict journal with the recovery
/// discipline every chaos campaign shares: `resume` recovers the
/// intact prefix through [`Journal::resume_keyed`] (torn tails
/// discarded and counted, duplicate verdicts scrubbed first-wins) and
/// reports what recovery did on stderr; a fresh run truncates. Any
/// journal I/O failure is a [`EXIT_USAGE`] environment error — the
/// campaign never validly started.
pub fn open_verdict_journal<V, K>(
    tool: &str,
    path: &Path,
    resume: bool,
    key_of: impl Fn(&V) -> K,
) -> (Journal<V>, Vec<V>)
where
    V: Serialize + Deserialize,
    K: std::hash::Hash + Eq,
{
    let fail = |verb: &str, e: std::io::Error| -> ! {
        eprintln!("{tool}: cannot {verb} {}: {e}", path.display());
        std::process::exit(EXIT_USAGE);
    };
    if resume {
        let (journal, recovery): (_, Recovery<V>) = match Journal::resume_keyed(path, key_of) {
            Ok(pair) => pair,
            Err(e) => fail("resume", e),
        };
        if recovery.dropped > 0 {
            eprintln!(
                "journal {}: discarded {} torn/damaged trailing line(s)",
                path.display(),
                recovery.dropped
            );
        }
        if recovery.duplicates > 0 {
            eprintln!(
                "journal {}: scrubbed {} duplicate verdict(s) (first wins)",
                path.display(),
                recovery.duplicates
            );
        }
        eprintln!(
            "journal {}: resuming past {} checked schedule(s)",
            path.display(),
            recovery.entries.len()
        );
        (journal, recovery.entries)
    } else {
        match Journal::create(path) {
            Ok(journal) => (journal, Vec::new()),
            Err(e) => fail("create", e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_vec("test", "usage", v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values_consume_in_any_order() {
        let mut a = args(&["--out", "dir", "--quick", "--seed", "9"]);
        assert_eq!(a.try_parsed::<u64>("--seed", "a seed"), Ok(Some(9)));
        assert!(a.flag("--quick"));
        assert!(!a.flag("--soak"));
        assert_eq!(a.try_value("--out"), Ok(Some("dir".to_string())));
        assert_eq!(a.try_finish(), Ok(()));
    }

    #[test]
    fn missing_and_invalid_values_are_typed() {
        let mut a = args(&["--seed"]);
        assert_eq!(
            a.try_value("--seed"),
            Err(CliError::MissingValue {
                flag: "--seed".into()
            })
        );
        let mut a = args(&["--seed", "ten"]);
        assert_eq!(
            a.try_parsed::<u64>("--seed", "an integer"),
            Err(CliError::InvalidValue {
                flag: "--seed".into(),
                value: "ten".into(),
                expected: "an integer",
            })
        );
    }

    #[test]
    fn leftovers_are_rejected_with_the_offenders_listed() {
        let mut a = args(&["--quick", "--frob", "x"]);
        assert!(a.flag("--quick"));
        assert_eq!(
            a.try_finish(),
            Err(CliError::UnknownArgs {
                args: vec!["--frob".into(), "x".into()]
            })
        );
    }

    #[test]
    fn a_duplicated_value_flag_is_rejected_not_silently_merged() {
        // First occurrence wins the accessor; the second survives to
        // finish() as an unknown leftover, so `--seed 1 --seed 2`
        // cannot silently mean either one.
        let mut a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.try_value("--seed"), Ok(Some("1".to_string())));
        assert_eq!(
            a.try_finish(),
            Err(CliError::UnknownArgs {
                args: vec!["--seed".into(), "2".into()]
            })
        );
    }

    #[test]
    fn exclusive_modes_conflict_only_when_two_are_chosen() {
        assert_eq!(
            Args::try_exclusive(&[("--a", false), ("--b", false)]),
            Ok(())
        );
        assert_eq!(
            Args::try_exclusive(&[("--a", true), ("--b", false)]),
            Ok(())
        );
        assert_eq!(
            Args::try_exclusive(&[("--a", true), ("--b", true), ("--c", false)]),
            Err(CliError::Conflict {
                message: "--a and --b are mutually exclusive".into()
            })
        );
    }

    #[test]
    fn a_flag_does_not_swallow_a_consumed_neighbor() {
        // `--resume --out`: --out's "value" position holds a flag that
        // was already consumed, so --out is missing its value rather
        // than silently eating it.
        let mut a = args(&["--out", "--resume"]);
        assert!(a.flag("--resume"));
        assert_eq!(
            a.try_value("--out"),
            Err(CliError::MissingValue {
                flag: "--out".into()
            })
        );
    }
}
