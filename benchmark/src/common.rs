//! What every workload shares: the run context, the end-to-end
//! outcome, seeded input generation and the set-up timer.

use crate::env::Env;
use crate::stats::median;
use crate::trace::Tracer;
use cpc_cluster::SplitMix64;
use std::time::Instant;

/// Inputs of one run. The seed fixes cell order, tenant names and each
/// campaign's processor-count list; the program under test sees only
/// those generated inputs.
pub struct Ctx<'a> {
    pub env: &'a Env,
    /// The real `serve` binary, built from source before the run.
    pub serve_binary: &'a std::path::Path,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
}

/// End-to-end numbers of one run, before `peak_rss_mb` is read.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub setup_s: f64,
    pub cells_per_s: f64,
    pub turnaround_p50_s: f64,
    pub ok_frac: f64,
    /// `VmHWM` of the process under test when that is not the harness
    /// itself (the `serve` child).
    pub child_peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The base every ratio was taken over, for the human report.
    pub base: String,
    /// `serve_paced` only: what the open loop saw, for the gateway
    /// rows of a traced run.
    pub observed: Option<crate::serve::Observed>,
}

/// A run repeats its set-up at least this often and reports the median,
/// so one slow start does not move `setup_s`.
pub const SETUP_MIN_REPEATS: usize = 3;
/// A cheap set-up (tens of milliseconds) is repeated until this much
/// time went into it, so its median rests on more than three samples.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 25;

/// Builds the workload's inputs repeatedly and returns the last product
/// with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPEATS)
    {
        // Free the previous product first: peak memory must be that of
        // one set-up, not of two alive at once.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat ran"), median(&times))
}

/// Fisher–Yates shuffle driven by the run's seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The processor counts every campaign covers. The seed draws their
/// order (which reorders the 48-cell task list and the journal), never
/// the set: every seed must do the same work, or a metric's spread
/// across seeds would measure the inputs instead of the program.
pub const CAMPAIGN_COUNTS: [usize; 4] = [1, 2, 4, 8];

pub fn draw_counts(rng: &mut SplitMix64) -> Vec<usize> {
    let mut counts = CAMPAIGN_COUNTS.to_vec();
    shuffle(&mut counts, rng);
    counts
}

/// A tenant name the gateway accepts, drawn from the seed.
pub fn draw_tenant(rng: &mut SplitMix64) -> String {
    format!("tenant-{:012x}", rng.next_u64() & 0xffff_ffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_inputs() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (
                draw_counts(&mut rng),
                draw_tenant(&mut rng),
                draw_counts(&mut rng),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (counts, tenant, _) = draw(7);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, CAMPAIGN_COUNTS);
        assert!(
            tenant.len() <= 64
                && tenant
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-')
        );
    }

    #[test]
    fn set_up_reports_the_median_of_its_repeats() {
        let mut calls = 0;
        let (product, secs) = timed_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(product, calls);
        assert!((SETUP_MIN_REPEATS..=SETUP_MAX_REPEATS).contains(&calls));
        assert!((0.0..0.5).contains(&secs));
    }
}
