//! Determinism audit: no ambient randomness, wall-clock time or
//! environment variable may reach simulation or chaos code paths.
//! Every random draw must flow from the seeded `cpc-cluster` RNG,
//! every timestamp from the virtual clock and every setting from an
//! argument — that is what makes fault schedules, campaign journals
//! and reproducers byte-identical across reruns.
//!
//! The audit greps the workspace crates' sources (shims are external
//! stand-ins and are exempt) for the usual escape hatches, timed waits
//! included: a wait that can give up after some host time makes what
//! happens next depend on the host. The allowances are both at the
//! process edge — a real socket's deadline and the `serve` pump's
//! liveness backstop — and neither decides what a simulation or a
//! campaign computes.

use std::path::{Path, PathBuf};

/// Patterns that smuggle nondeterminism into results.
const FORBIDDEN: &[&str] = &[
    "SystemTime::now",
    "Instant::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "getrandom",
    "env::var",
    "wait_timeout",
    "park_timeout",
];

/// Files allowed to use a specific pattern, with the reason on record.
/// Keep this list short: every entry must justify why the use cannot
/// leak into simulated results.
const ALLOWANCES: &[(&str, &str)] = &[
    // The gateway's TcpConn measures real elapsed time on a *real*
    // accepted socket to enforce the slowloris request deadline.
    // Campaign results never flow through it deterministically: chaos
    // schedules and tests drive the handler through ScriptedConn,
    // whose elapsed time is scripted.
    ("gateway/src/http.rs", "Instant::now"),
    // The `serve` binary's pump thread sleeps on a condvar that every
    // submit rings; the 500 ms timeout is a liveness backstop at the
    // binary edge (a missed ring delays a pump, it cannot change what
    // the pump commits).
    ("bench/src/bin/serve.rs", "wait_timeout"),
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("crates directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_ambient_time_or_rng_in_simulation_or_chaos_code() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    rust_sources(&crates, &mut sources);
    assert!(
        sources.len() > 30,
        "audit must actually see the workspace sources, found {}",
        sources.len()
    );

    let mut offenses = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("source file is readable");
        let rel = path
            .strip_prefix(&crates)
            .expect("source lives under crates/")
            .to_string_lossy()
            .replace('\\', "/");
        for pattern in FORBIDDEN {
            for (i, line) in text.lines().enumerate() {
                if line.contains(pattern) && !ALLOWANCES.contains(&(rel.as_str(), pattern)) {
                    offenses.push(format!("crates/{rel}:{}: {pattern}", i + 1));
                }
            }
        }
    }
    assert!(
        offenses.is_empty(),
        "ambient time/RNG reached simulation code (route it through the \
         seeded cpc-cluster RNG or the virtual clock, or add a justified \
         allowance):\n{}",
        offenses.join("\n")
    );
}

#[test]
fn every_allowance_is_still_needed() {
    // If an allowed file ever stops using its pattern, the allowance
    // above must be deleted with it — a stale allowance is a hole in
    // the audit.
    for (rel, pattern) in ALLOWANCES {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates")
            .join(rel);
        let text = std::fs::read_to_string(path).expect("allowed source is readable");
        assert!(
            text.contains(pattern),
            "crates/{rel} no longer uses {pattern}: remove its allowance from this audit"
        );
    }
}
