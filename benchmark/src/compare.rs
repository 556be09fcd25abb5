//! `cpc-benchmark compare A.json B.json`: two results files of `all`
//! side by side — A the parent (or the first of two runs of the same
//! commit), B the change. One row per (end-to-end metric, workload)
//! with both medians, the quartiles, the bound and a verdict; then the
//! exact-count rows, which must be identical.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The run-to-run spread is wider than the bound, and neither side
    /// beats the other in every run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewer run pairs than this never show a gain, only the absence of a
/// regression.
const MIN_PAIRS_FOR_A_GAIN: usize = 10;

/// Inter-quartile distance over the median; a single run has none.
fn spread(values: &[f64]) -> f64 {
    crate::stats::spread(values).unwrap_or(0.0)
}

/// Judges B against A for a metric where `higher` says which way is
/// good and `bound` is the share of A's median B may lose.
pub fn judge(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    // Work in "larger is better" throughout.
    let orient =
        |v: &[f64]| -> Vec<f64> { v.iter().map(|x| if higher { *x } else { -*x }).collect() };
    let (ga, gb) = (orient(a), orient(b));
    let (ma, mb) = (median(&ga), median(&gb));
    let gain = (mb - ma) / ma.abs();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if spread(a).max(spread(b)) > bound {
        return if min(&gb) > max(&ga) {
            Verdict::Better
        } else if max(&gb) < min(&ga) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        return Verdict::Worse;
    }
    // A gain counts when there are at least ten run pairs, it exceeds
    // the parent's own run-to-run spread, and B wins at least nine
    // tenths of the pairs (ties counting for neither).
    let pairs = ga.len().min(gb.len());
    let wins = ga.iter().zip(&gb).filter(|(x, y)| y > x).count();
    let ties = ga.iter().zip(&gb).filter(|(x, y)| y == x).count();
    if pairs >= MIN_PAIRS_FOR_A_GAIN
        && gain > spread(a)
        && pairs > ties
        && wins as f64 >= 0.9 * (pairs - ties) as f64
    {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn runs(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn layer(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .as_f64()
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("[{q1:.5} .. {q3:.5}]"),
        None => "[single run]".to_string(),
    }
}

/// Prints the table; `Ok(false)` when any row is `worse` or an exact
/// count differs.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<17} {:>13} {:>13} {:>8} {:>6}  {:<10} quartiles A | B",
        "workload", "metric", "median A", "median B", "change", "bound", "verdict"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (runs(&a, w.name, m.name), runs(&b, w.name, m.name)) else {
                return Err(format!("{}/{} is missing from one file", w.name, m.name));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{}/{} has no runs", w.name, m.name));
            }
            let verdict = judge(&va, &vb, m.better == "higher", m.bound);
            clean &= verdict != Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<17} {:>13.5} {:>13.5} {:>+7.2}% {:>5.0}%  {:<10} {} | {}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                m.bound * 100.0,
                verdict.label(),
                quartile_text(&va),
                quartile_text(&vb)
            );
        }
    }
    println!("\nexact counts (must repeat):");
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let mut differing = Vec::new();
        for w in &WORKLOADS {
            let (Some(x), Some(y)) = (layer(&a, w.name, m.name), layer(&b, w.name, m.name)) else {
                return Err(format!("{}/{} is missing from one file", w.name, m.name));
            };
            if x != y {
                differing.push(format!("{}: {x} vs {y}", w.name));
            }
        }
        if differing.is_empty() {
            println!("  {:<36} identical", m.name);
        } else {
            clean = false;
            println!("  {:<36} DIFFERS ({})", m.name, differing.join("; "));
        }
    }
    println!(
        "\n{}",
        if clean {
            "no row is worse and every exact count repeats"
        } else {
            "REGRESSION: a row is worse or an exact count moved"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_loss_beyond_the_bound_is_worse_and_inside_it_unchanged() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.0,
        ];
        let lost_12 = a.map(|x| x * 0.88);
        let lost_4 = a.map(|x| x * 0.96);
        assert_eq!(judge(&a, &lost_12, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &lost_4, true, 0.10), Verdict::Unchanged);
        // The same numbers as a latency: lower is better, so B gained.
        assert_eq!(judge(&a, &lost_12, false, 0.10), Verdict::Better);
    }

    #[test]
    fn a_gain_must_clear_the_parents_own_spread_and_win_nine_pairs_in_ten() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.0,
        ];
        let faster = a.map(|x| x * 1.1);
        let barely = a.map(|x| x + 0.2);
        assert_eq!(judge(&a, &faster, true, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &barely, true, 0.10), Verdict::Unchanged);
        assert_eq!(judge(&a, &a, true, 0.10), Verdict::Unchanged);
        // Three pairs are too few to call a gain, however clear.
        assert_eq!(judge(&a[..3], &faster[..3], true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        let overlapping = [95.0, 125.0, 85.0, 115.0, 100.0];
        let clear_of_it = [140.0, 150.0, 135.0, 160.0, 145.0];
        // Every run of one side beating every run of the other settles
        // it whatever the count.
        assert_eq!(judge(&noisy, &overlapping, true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &clear_of_it, true, 0.10), Verdict::Better);
        assert_eq!(judge(&clear_of_it, &noisy, true, 0.10), Verdict::Worse);
    }
}
