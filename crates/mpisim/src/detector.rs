//! φ-accrual failure detection over heartbeat-piggybacked load
//! reports.
//!
//! The classic φ-accrual detector grades inter-arrival times of
//! heartbeats. In this simulator that signal is useless: the MD loop
//! is bulk-synchronous, so every rank's virtual clock re-synchronizes
//! at each collective and a straggler's heartbeats arrive exactly as
//! punctually as anyone else's. What *does* localize a gray failure is
//! the per-unit compute cost each rank observes on itself — a node
//! running at half speed reports twice the seconds per unit of work.
//!
//! Each heartbeat therefore piggybacks the sender's last normalized
//! step cost (control messages are modeled at one byte regardless of
//! payload, so the piggyback changes no timing or RNG draw). Every
//! member receives the identical set of reports, so detector state is
//! **replicated by construction**: evict/rebalance decisions
//! come out the same on every rank with zero extra agreement traffic.
//!
//! The suspicion level of peer `j` is
//!
//! ```text
//! φ_j = log10(e) · ewma_j / median(ewma over live members)
//! ```
//!
//! i.e. the accrual scale applied to *relative* slowness, so a
//! uniformly slow (or uniformly fast) cohort accrues no suspicion at
//! all. A healthy peer sits at φ ≈ 0.434; the default threshold puts
//! *evict* at ~3.5× the cohort median (treat as crashed and shrink).
//! Rebalancing reads the relative costs themselves
//! ([`FailureDetector::relative_costs`]) against the recovery driver's
//! trigger.

use cpc_cluster::RttEstimator;

/// `log10(e)` — the φ-accrual scale factor: φ of an event with
/// likelihood `10^-φ` under the fitted model, here applied to the
/// relative-slowness ratio.
pub const PHI_SCALE: f64 = core::f64::consts::LOG10_E;

/// Tuning knobs of the [`FailureDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// φ at which a peer is *evicted* (treated as crashed; the
    /// communicator shrinks). The default corresponds to ~3.5× the
    /// cohort median cost.
    pub phi_evict: f64,
    /// EWMA smoothing factor for per-peer cost reports, in `(0, 1]`;
    /// 1.0 = latest report only.
    pub ewma_alpha: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            phi_evict: 1.5,
            ewma_alpha: 0.5,
        }
    }
}

/// Replicated φ-accrual failure detector fed by heartbeat-piggybacked
/// per-unit cost reports. Peers are indexed by *engine* rank, which is
/// stable across communicator shrinks.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    /// Per-engine-rank EWMA of reported per-unit step cost; `None`
    /// until the first report.
    ewma: Vec<Option<f64>>,
    /// Per-engine-rank RTT estimate from heartbeat wire times. Local
    /// observation only (each receiver sees its own wire times) — used
    /// for statistics, never for the replicated evict/rebalance
    /// decisions.
    rtt: Vec<RttEstimator>,
    /// Highest φ ever computed by this detector (reporting).
    phi_max: f64,
}

impl FailureDetector {
    /// A detector for a cluster of `ranks` engine ranks.
    pub fn new(ranks: usize, cfg: DetectorConfig) -> Self {
        FailureDetector {
            cfg,
            ewma: vec![None; ranks],
            rtt: vec![RttEstimator::new(); ranks],
            phi_max: 0.0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> DetectorConfig {
        self.cfg
    }

    /// Folds a per-unit cost report from `engine_rank` into its EWMA.
    /// Negative reports are the "no data yet" sentinel and are skipped.
    pub fn report(&mut self, engine_rank: usize, unit_cost: f64) {
        if !unit_cost.is_finite() || unit_cost < 0.0 {
            return;
        }
        let a = self.cfg.ewma_alpha;
        self.ewma[engine_rank] = Some(match self.ewma[engine_rank] {
            Some(prev) => (1.0 - a) * prev + a * unit_cost,
            None => unit_cost,
        });
    }

    /// Folds a heartbeat wire-time sample for `engine_rank` (local
    /// statistics only).
    pub(crate) fn observe_rtt(&mut self, engine_rank: usize, wire: f64) {
        self.rtt[engine_rank].observe(wire);
    }

    /// The smoothed heartbeat RTT toward `engine_rank`, if observed.
    pub fn srtt(&self, engine_rank: usize) -> Option<f64> {
        self.rtt[engine_rank].srtt()
    }

    /// Largest smoothed heartbeat RTT over all peers, if any.
    pub fn srtt_max(&self) -> Option<f64> {
        self.rtt
            .iter()
            .filter_map(|e| e.srtt())
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Clears all state for `engine_rank` (crashed or evicted peer).
    pub fn forget(&mut self, engine_rank: usize) {
        self.ewma[engine_rank] = None;
        self.rtt[engine_rank] = RttEstimator::new();
    }

    /// Highest suspicion level ever computed (reporting).
    pub fn phi_max(&self) -> f64 {
        self.phi_max
    }

    /// Relative per-unit costs of `members` (each member's EWMA over
    /// the cohort median), or `None` until every member has reported.
    /// Identical on every rank: the inputs are the replicated reports.
    pub fn relative_costs(&self, members: &[usize]) -> Option<Vec<f64>> {
        let costs: Vec<f64> = members
            .iter()
            .map(|&m| self.ewma[m])
            .collect::<Option<Vec<f64>>>()?;
        let med = median(&costs);
        if !(med.is_finite() && med > 0.0) {
            return None;
        }
        Some(costs.iter().map(|c| c / med).collect())
    }

    /// Suspicion levels of `members`, aligned with the input order, or
    /// `None` until every member has reported. Updates
    /// [`phi_max`](Self::phi_max).
    pub(crate) fn phis(&mut self, members: &[usize]) -> Option<Vec<f64>> {
        let phis: Vec<f64> = self
            .relative_costs(members)?
            .iter()
            .map(|r| PHI_SCALE * r)
            .collect();
        for &phi in &phis {
            self.phi_max = self.phi_max.max(phi);
        }
        Some(phis)
    }

    /// The engine rank of the single worst member at or past
    /// [`DetectorConfig::phi_evict`], if any — the one to evict and
    /// shrink away. At most one per call so the cohort never collapses
    /// in a single boundary; ties break toward the lowest engine rank,
    /// and a 1-member cohort never evicts. Deterministic and identical
    /// on every rank.
    pub fn evict_candidate(&mut self, members: &[usize]) -> Option<usize> {
        if members.len() <= 1 {
            return None;
        }
        let phis = self.phis(members)?;
        let mut worst: Option<(f64, usize)> = None;
        for (&m, &phi) in members.iter().zip(&phis) {
            if phi >= self.cfg.phi_evict && worst.is_none_or(|(wp, _)| phi > wp) {
                worst = Some((phi, m));
            }
        }
        worst.map(|(_, m)| m)
    }
}

/// Lower median of a non-empty slice (order statistic at
/// `(n - 1) / 2`). The lower median, not the interpolated one, keeps
/// the healthy-cohort baseline uncontaminated by the straggler itself
/// in small even-sized cohorts: in a 2-member cohort with costs
/// `[1, 3]` the interpolated median is 2 and the straggler's ratio a
/// useless 1.5, while the lower median is 1 and the ratio the true 3.
fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(costs: &[f64]) -> FailureDetector {
        let mut det = FailureDetector::new(costs.len(), DetectorConfig::default());
        for (r, &c) in costs.iter().enumerate() {
            det.report(r, c);
        }
        det
    }

    #[test]
    fn uniform_cohort_accrues_no_suspicion() {
        let mut det = fed(&[2.0, 2.0, 2.0, 2.0]);
        let members = [0, 1, 2, 3];
        let phis = det.phis(&members).unwrap();
        for phi in phis {
            assert!((phi - PHI_SCALE).abs() < 1e-12, "healthy φ ≈ 0.434");
        }
        assert_eq!(det.evict_candidate(&members), None);
    }

    #[test]
    fn scale_invariance_a_uniformly_slow_cohort_is_healthy() {
        let mut fast = fed(&[1.0, 1.0, 1.0, 1.0]);
        let mut slow = fed(&[10.0, 10.0, 10.0, 10.0]);
        let members = [0, 1, 2, 3];
        assert_eq!(fast.phis(&members), slow.phis(&members));
    }

    #[test]
    fn a_2x_straggler_is_suspected_but_not_evicted() {
        let mut det = fed(&[1.0, 1.0, 1.0, 2.0]);
        let members = [0, 1, 2, 3];
        // Past the recovery driver's 1.5x rebalance trigger.
        assert_eq!(det.relative_costs(&members), Some(vec![1.0, 1.0, 1.0, 2.0]));
        assert_eq!(det.evict_candidate(&members), None);
    }

    #[test]
    fn a_severe_straggler_becomes_the_evict_candidate() {
        let mut det = fed(&[1.0, 1.0, 1.0, 4.0]);
        let members = [0, 1, 2, 3];
        assert_eq!(det.evict_candidate(&members), Some(3));
        // A lone member is never evicted no matter how slow.
        assert_eq!(det.evict_candidate(&[3]), None);
    }

    #[test]
    fn evict_takes_the_single_worst_with_low_rank_ties() {
        let mut det = fed(&[1.0, 6.0, 1.0, 6.0, 1.0]);
        let members = [0, 1, 2, 3, 4];
        assert_eq!(det.evict_candidate(&members), Some(1));
    }

    #[test]
    fn no_verdicts_until_every_member_reported() {
        let mut det = FailureDetector::new(4, DetectorConfig::default());
        det.report(0, 1.0);
        det.report(1, 1.0);
        let members = [0, 1, 2, 3];
        assert_eq!(det.phis(&members), None);
        assert_eq!(det.relative_costs(&members), None);
        // The reported subset alone is judgeable.
        assert!(det.phis(&[0, 1]).is_some());
    }

    #[test]
    fn sentinel_and_bogus_reports_are_skipped() {
        let mut det = FailureDetector::new(2, DetectorConfig::default());
        det.report(0, -1.0);
        det.report(0, f64::NAN);
        assert_eq!(det.phis(&[0]), None);
        det.report(0, 3.0);
        assert!(det.phis(&[0]).is_some());
    }

    #[test]
    fn ewma_tracks_a_developing_straggler() {
        let mut det = FailureDetector::new(2, DetectorConfig::default());
        let members = [0, 1];
        for _ in 0..4 {
            det.report(0, 1.0);
            det.report(1, 1.0);
        }
        assert_eq!(det.relative_costs(&members), Some(vec![1.0, 1.0]));
        // Node 1 turns slow: suspicion accrues over a few heartbeats
        // rather than tripping on one noisy report.
        det.report(0, 1.0);
        det.report(1, 3.0);
        let after_one = det.phis(&members).unwrap()[1];
        det.report(0, 1.0);
        det.report(1, 3.0);
        let after_two = det.phis(&members).unwrap()[1];
        assert!(after_two > after_one, "suspicion accrues");
        let rel = det.relative_costs(&members).unwrap()[1];
        assert!(rel > 1.5, "past the 1.5x rebalance trigger: {rel}");
    }

    #[test]
    fn forget_clears_a_peer() {
        let mut det = fed(&[1.0, 5.0]);
        det.observe_rtt(1, 0.01);
        assert!(det.srtt(1).is_some());
        det.forget(1);
        assert_eq!(det.phis(&[0, 1]), None);
        assert_eq!(det.srtt(1), None);
        assert!(det.phis(&[0]).is_some(), "survivor state is intact");
    }

    #[test]
    fn phi_max_and_srtt_max_report_extremes() {
        let mut det = fed(&[1.0, 1.0, 1.0, 4.0]);
        let members = [0, 1, 2, 3];
        let phis = det.phis(&members).unwrap();
        let expect = phis.iter().fold(0.0, |a: f64, &b| a.max(b));
        assert_eq!(det.phi_max(), expect);
        assert_eq!(det.srtt_max(), None);
        det.observe_rtt(0, 0.01);
        det.observe_rtt(2, 0.04);
        assert_eq!(det.srtt_max(), Some(0.04));
    }

    #[test]
    fn detector_state_is_replicated_under_identical_reports() {
        // Two "ranks" folding the same report sequence in different
        // arrival orders converge to identical state: per-peer EWMAs
        // are independent folds.
        let mut a = FailureDetector::new(3, DetectorConfig::default());
        let mut b = FailureDetector::new(3, DetectorConfig::default());
        for step in 0..5 {
            let reports = [1.0 + 0.1 * step as f64, 2.0, 1.5];
            for (r, &c) in reports.iter().enumerate() {
                a.report(r, c);
            }
            for (r, &c) in reports.iter().enumerate().rev() {
                b.report(r, c);
            }
        }
        let members = [0, 1, 2];
        assert_eq!(a.phis(&members), b.phis(&members));
        assert_eq!(a.evict_candidate(&members), b.evict_candidate(&members));
    }
}
