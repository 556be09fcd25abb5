//! What a run prints: the contract's result line on stdout, a human
//! report on stderr, and — for `all` — a results file `compare` reads.

use crate::common::Outcome;
use crate::guard::peak_rss_mb;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Flags;
use serde_json::Value;
use std::process::{Command, Stdio};

/// `(name, value, unit)` rows in contract order.
pub type Rows = Vec<(String, f64, &'static str)>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

/// The end-to-end rows of a run. `peak_rss_mb` is read last, so it
/// covers set-up, warm-up and every repetition.
pub fn end_to_end(outcome: &Outcome) -> Rows {
    let rss = outcome
        .child_peak_rss_mb
        .or_else(|| peak_rss_mb(None))
        .unwrap_or(f64::NAN);
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => outcome.setup_s,
                "cells_per_s" => outcome.cells_per_s,
                "turnaround_p50_s" => outcome.turnaround_p50_s,
                "ok_frac" => outcome.ok_frac,
                "peak_rss_mb" => rss,
                other => unreachable!("no value for end-to-end metric {other}"),
            };
            (m.name.to_string(), value, m.unit)
        })
        .collect()
}

pub fn print_end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: &Outcome,
    rows: &Rows,
) {
    eprintln!(
        "== {workload}  seed {seed}  {seconds} s  {}",
        if traced { "traced" } else { "untraced" }
    );
    for (name, value, unit) in rows {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    eprintln!("  base: {}", outcome.base);
}

/// Every per-layer metric of the contract, once, with a finite value.
pub fn check_per_layer(rows: &[(&'static str, f64)]) -> Result<(), String> {
    for m in PER_LAYER {
        match rows.iter().filter(|(n, _)| *n == m.name).count() {
            1 => {}
            n => return Err(format!("layer replay produced {} {n} times", m.name)),
        }
    }
    if rows.len() != PER_LAYER.len() {
        return Err("layer replay produced a metric the contract does not name".to_string());
    }
    match rows.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, value)) => Err(format!("{name} is {value}")),
        None => Ok(()),
    }
}

pub fn print_per_layer(rows: &[(&'static str, f64)]) {
    eprintln!("-- per layer");
    for (name, value) in rows {
        eprintln!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// How the workload's root spans split into their children (cells,
/// `exec` closures, HTTP requests) and self time: what the harness-side
/// trace can say about where a repetition went.
pub fn print_repetition_accounting(spans: &[crate::trace::Span]) {
    let selfs = crate::trace::self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.name == "repetition" {
            total += s.end_ns - s.start_ns;
            own += self_ns;
        }
    }
    if total > 0 {
        eprintln!(
            "trace: repetitions {:.4} s = child spans {:.4} s + self {:.4} s (self fraction {:.4})",
            total as f64 / 1e9,
            (total - own) as f64 / 1e9,
            own as f64 / 1e9,
            own as f64 / total as f64
        );
    }
}

fn metric_object(rows: &Rows) -> Value {
    Value::Object(
        rows.iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Rows,
) -> Result<String, String> {
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is {value}: nothing to report"));
    }
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted.max(1) as i64)),
        ("failed".to_string(), Value::Int(failed as i64)),
        ("metrics".to_string(), metric_object(metrics)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

/// What the span file says about the run it came from; `all` reads
/// the traced end-to-end numbers back from here.
pub fn trace_header(workload: &str, seed: u64, seconds: f64, e2e: &Rows) -> Vec<(String, Value)> {
    vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::Int(seed as i64)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("end_to_end_traced".to_string(), metric_object(e2e)),
    ]
}

/// Runs this binary once as a child (one process per workload, so
/// `peak_rss_mb` is per workload) and returns its parsed result line.
fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result ({})", out.status))?;
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if !out.status.success() || doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload} failed its correctness gate ({})",
            out.status
        ));
    }
    Ok(doc)
}

fn metric_value(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!(
            "median {:.6}  q1 {q1:.6}  q3 {q3:.6}  n {}",
            median(values),
            values.len()
        ),
        None => format!("median {:.6}  n {}", median(values), values.len()),
    }
}

/// `all`: every workload `reps` times untraced plus once traced, each
/// run a fresh process on fresh on-disk state; prints medians,
/// quartiles and sample counts and writes the results file.
pub fn run_all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", crate::DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", crate::spec::RUN_SECONDS as f64)?;
    let reps: usize = flags.parsed("--reps", 5)?;
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    let env = crate::env::Env::detect().map_err(|e| e.to_string())?;
    let out_path = match flags.get("--out") {
        Some(p) => std::path::PathBuf::from(p),
        None => env.out.join("results.json"),
    };

    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut e2e: Vec<(String, Vec<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), Vec::new()))
            .collect();
        for _ in 0..reps {
            let doc = child_run(w.name, seed, seconds, false)?;
            for (name, values) in &mut e2e {
                values.push(
                    metric_value(&doc, name)
                        .ok_or_else(|| format!("{}: no {name} in the result", w.name))?,
                );
            }
        }
        let traced = child_run(w.name, seed, seconds, true)?;
        let per_layer: Vec<(String, f64)> = PER_LAYER
            .iter()
            .map(|m| {
                metric_value(&traced, m.name)
                    .map(|v| (m.name.to_string(), v))
                    .ok_or_else(|| format!("{}: no {} in the traced result", w.name, m.name))
            })
            .collect::<Result<_, _>>()?;

        // Tracing overhead: the untraced median rate over the traced
        // run's rate, both in cells per second.
        let trace_path = env.out.join(format!("trace_{}.json", w.name));
        let traced_rate = std::fs::read_to_string(&trace_path)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok())
            .and_then(|doc| {
                doc.get("end_to_end_traced")?
                    .get("cells_per_s")?
                    .get("value")?
                    .as_f64()
            })
            .ok_or_else(|| format!("cannot read the traced rate from {}", trace_path.display()))?;
        let untraced_rate = median(
            &e2e.iter()
                .find(|(n, _)| n == "cells_per_s")
                .expect("in the table")
                .1,
        );
        let overhead = untraced_rate / traced_rate - 1.0;

        println!("== {}", w.name);
        for (name, values) in &e2e {
            println!("  {name:<20} {:<6} {}", unit_of(name), summary(values));
        }
        println!("  trace_overhead_frac  {overhead:+.4}  (untraced {untraced_rate:.4} / traced {traced_rate:.4} cells/s - 1)");
        workloads.push((
            w.name.to_string(),
            Value::Object(vec![
                (
                    "end_to_end".to_string(),
                    Value::Object(
                        e2e.into_iter()
                            .map(|(n, v)| {
                                (n, Value::Array(v.into_iter().map(Value::Float).collect()))
                            })
                            .collect(),
                    ),
                ),
                (
                    "per_layer".to_string(),
                    Value::Object(
                        per_layer
                            .into_iter()
                            .map(|(n, v)| (n, Value::Float(v)))
                            .collect(),
                    ),
                ),
                ("trace_overhead_frac".to_string(), Value::Float(overhead)),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        ("seed".to_string(), Value::Int(seed as i64)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("reps".to_string(), Value::Int(reps as i64)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, text)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!("results in {}", out_path.display());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            setup_s: 0.25,
            cells_per_s: 48.5,
            turnaround_p50_s: 0.98,
            ok_frac: 1.0,
            child_peak_rss_mb: Some(12.5),
            attempted: 10,
            failed: 0,
            base: String::new(),
            observed: None,
        }
    }

    #[test]
    fn the_result_line_carries_exactly_the_contract_keys_and_metric_names() {
        let rows = end_to_end(&outcome());
        let line = result_line(true, 10, 0, &rows).unwrap();
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert_eq!(metric_value(&doc, "peak_rss_mb"), Some(12.5));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_value_that_is_not_a_number_is_never_printed() {
        let mut bad = outcome();
        bad.cells_per_s = f64::NAN;
        assert!(result_line(true, 1, 0, &end_to_end(&bad)).is_err());
    }

    #[test]
    fn the_layer_replay_must_produce_every_declared_metric_exactly_once() {
        let mut rows: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 1.0)).collect();
        assert!(check_per_layer(&rows).is_ok());
        let dropped = rows.pop().unwrap();
        assert!(check_per_layer(&rows).is_err());
        rows.push(dropped);
        rows.push(dropped);
        assert!(check_per_layer(&rows).is_err());
        rows.pop();
        rows[0].1 = f64::INFINITY;
        assert!(check_per_layer(&rows).is_err());
        assert_eq!(unit_of("mdsys.evaluate_ms"), "ms");
        assert_eq!(unit_of("setup_s"), "s");
    }
}
