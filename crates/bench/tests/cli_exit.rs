//! The usage discipline, end to end: every malformed invocation of a
//! bench binary must exit 2 (never 0, never a panic) with the usage
//! string on stderr, and `--help` must exit 0. Driven through the
//! `serve`, `trace_demo` and `chaos` binaries, whose error paths run
//! before any workload is built — so these stay fast.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("serve binary runs")
}

fn trace_demo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_demo"))
        .args(args)
        .output()
        .expect("trace_demo binary runs")
}

#[test]
fn an_unknown_flag_exits_2_and_names_the_offender() {
    let out = serve(&["--frob"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown argument") && err.contains("--frob"),
        "stderr must name the offender: {err}"
    );
    assert!(err.contains("usage:"), "stderr must carry usage: {err}");
}

#[test]
fn a_flag_missing_its_value_exits_2() {
    let out = serve(&["--port"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--port requires a value"), "{err}");
}

#[test]
fn a_malformed_integer_exits_2_and_echoes_the_rejected_text() {
    let out = serve(&["--port", "eighty"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"eighty\""), "{err}");
}

#[test]
fn a_duplicated_flag_exits_2_as_a_leftover() {
    let out = serve(&["--get", "/healthz", "--get", "/readyz"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown argument") && err.contains("/readyz"),
        "{err}"
    );
}

#[test]
fn a_structural_conflict_exits_2() {
    let out = serve(&["--body", "{}"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--body without --post"), "{err}");
}

#[test]
fn zero_ranks_is_a_conflict_in_trace_demo() {
    let out = trace_demo(&["--ranks", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ranks must be at least 1"), "{err}");
}

#[test]
fn an_unknown_chaos_layer_exits_2_with_the_usage_text() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--layers", "nope"])
        .output()
        .expect("chaos binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--layers") && err.contains("\"nope\""),
        "{err}"
    );
    assert!(
        err.contains("usage: chaos") && err.contains("md,service,transport,disk,sched"),
        "stderr must carry usage: {err}"
    );
}

#[test]
fn help_exits_0_with_the_usage_string() {
    let out = serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: serve"));
}
