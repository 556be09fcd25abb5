//! `cpc-benchmark`: the repo's one scoreboard. One process per
//! workload:
//!
//! ```text
//! cpc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cpc-benchmark all [--seed N] [--seconds S] [--reps N] [--out FILE]
//! cpc-benchmark compare A.json B.json
//! cpc-benchmark spec
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: it prints a
//! human report on stderr and, as the last line of stdout, one JSON
//! object `{"correct","attempted","failed","metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1` (which also writes `benchmark/out/trace_<workload>.json`).

mod common;
mod compare;
mod countfs;
mod env;
mod guard;
mod http;
mod layers;
mod memfs;
mod myo;
mod openloop;
mod report;
mod serve;
mod spec;
mod stats;
mod svc;
mod trace;

use common::{Ctx, Outcome};
use std::process::ExitCode;

/// Seed used when none is given (the paper's year, as everywhere in
/// the repo).
const DEFAULT_SEED: u64 = 2002;

const USAGE: &str = "usage: cpc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      cpc-benchmark all [--seed N] [--seconds S] [--reps N] [--out FILE]\n\
     \x20      cpc-benchmark compare A.json B.json\n\
     \x20      cpc-benchmark spec";

/// `--flag value` pairs after the subcommand, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

fn run_workload(ctx: &Ctx<'_>, name: &str) -> Result<Outcome, String> {
    match name {
        "myo_scaling" => myo::run(ctx, myo::Which::Scaling),
        "myo_platforms" => myo::run(ctx, myo::Which::Platforms),
        "svc_cold" => svc::run(ctx, false),
        "svc_warm" => svc::run(ctx, true),
        "serve_paced" => serve::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One contract run. Everything that owns a child process or a temp
/// root lives below this frame, so returning from it — or unwinding
/// through it — has already cleaned up.
fn one_run(flags: &Flags) -> Result<bool, String> {
    let workload = flags
        .get("--workload")
        .ok_or_else(|| "--workload is required".to_string())?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must lie in 1..=60".to_string());
    }
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };

    let env = env::Env::detect().map_err(|e| e.to_string())?;
    // Every run asks cargo for the real `serve` binary: the first run in
    // a checkout pays for the build whatever its workload, later ones
    // cost a no-op check, and nobody measures a stale binary.
    let serve_binary = env
        .build_serve()
        .map_err(|e| format!("cannot build serve: {e}"))?;
    let tracer = trace::Tracer::new(traced);
    let ctx = Ctx {
        env: &env,
        serve_binary: &serve_binary,
        seed,
        seconds,
        tracer: &tracer,
    };
    let started = std::time::Instant::now();
    let outcome = run_workload(&ctx, workload)?;
    let e2e = report::end_to_end(&outcome);
    report::print_end_to_end(workload, seed, seconds, traced, &outcome, &e2e);

    let correct = outcome.failed == 0;
    let metrics = if traced {
        let rows = layers::replay(&env, &serve_binary, &tracer, outcome.observed.as_ref())?;
        report::check_per_layer(&rows)?;
        report::print_per_layer(&rows);
        let path = env.out.join(format!("trace_{workload}.json"));
        tracer
            .write(&path, report::trace_header(workload, seed, seconds, &e2e))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let spans = tracer.snapshot();
        eprintln!("trace: {} spans in {}", spans.len(), path.display());
        report::print_repetition_accounting(&spans);
        // Contract order, whatever order the replay measured in.
        spec::PER_LAYER
            .iter()
            .filter_map(|m| rows.iter().find(|(name, _)| *name == m.name))
            .map(|(name, value)| (name.to_string(), *value, report::unit_of(name)))
            .collect()
    } else {
        e2e
    };
    eprintln!(
        "run: {workload} finished in {:.1} s, {} of {} operations failed",
        started.elapsed().as_secs_f64(),
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("all") => Flags::parse(&args[1..], &["--seed", "--seconds", "--reps", "--out"])
            .and_then(|f| report::run_all(&f)),
        Some(first) if first.starts_with("--") => {
            Flags::parse(&args, &["--workload", "--seed", "--seconds", "--trace"])
                .and_then(|f| one_run(&f))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("cpc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
