//! Run reports: the response variables of the paper's experimental
//! design, aggregated from per-rank statistics.

use crate::driver::MdConfig;
use cpc_cluster::{
    summarize_throughput, ClusterConfig, Phase, PhaseBucket, RankOutcome, RankStats,
    ThroughputSummary,
};
use cpc_md::Vec3;
use cpc_mpi::Middleware;

/// Energies recorded at one MD step (on rank 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEnergies {
    /// Classic (time-domain) potential energy.
    pub classic: f64,
    /// PME (frequency-domain) energy contribution.
    pub pme: f64,
    /// Kinetic energy.
    pub kinetic: f64,
}

impl StepEnergies {
    /// Total energy of the step.
    pub fn total(&self) -> f64 {
        self.classic + self.pme + self.kinetic
    }
}

/// The full result of one measurement run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Platform configuration.
    pub cluster: ClusterConfig,
    /// Middleware used.
    pub middleware: Middleware,
    /// MD steps measured.
    pub steps: usize,
    /// Per-rank statistics.
    pub per_rank: Vec<RankStats>,
    /// Wall-clock (virtual) time of the whole run.
    pub wall_time: f64,
    /// Per-step energies (from rank 0).
    pub step_energies: Vec<StepEnergies>,
    /// Final coordinates (rank 0) for physics verification.
    pub final_positions: Vec<Vec3>,
    /// Final velocities (rank 0).
    pub final_velocities: Vec<Vec3>,
}

/// What a rank body of the MD drivers returns: its energy log and its
/// final positions and velocities. Every rank's are the same bits.
pub(crate) type RankPayload = (Vec<StepEnergies>, Vec<Vec3>, Vec<Vec3>);

impl RunReport {
    /// Builds a report from the raw cluster outcomes and the physics
    /// rank 0 returned.
    pub(crate) fn from_outcomes<T>(
        cfg: &MdConfig,
        outcomes: Vec<RankOutcome<T>>,
        physics: RankPayload,
    ) -> Self {
        let wall_time = outcomes.iter().map(|o| o.finish_time).fold(0.0, f64::max);
        let (step_energies, final_positions, final_velocities) = physics;
        RunReport {
            cluster: cfg.cluster,
            middleware: cfg.middleware,
            steps: cfg.steps,
            per_rank: outcomes.into_iter().map(|o| o.stats).collect(),
            wall_time,
            step_energies,
            final_positions,
            final_velocities,
        }
    }

    /// Wall time of a phase: the maximum over ranks of that phase's
    /// total (the paper's per-component wall-clock bars).
    pub(crate) fn phase_time(&self, phase: Phase) -> f64 {
        self.per_rank
            .iter()
            .map(|s| s.bucket(phase).total())
            .fold(0.0, f64::max)
    }

    /// The "classic calculation" bar of Figures 3/5/8/9.
    pub fn classic_time(&self) -> f64 {
        self.phase_time(Phase::Classic)
    }

    /// The "pme calculation" bar of Figures 3/5/8/9.
    pub fn pme_time(&self) -> f64 {
        self.phase_time(Phase::Pme)
    }

    /// Total energy-calculation time (classic + PME bars stacked).
    pub fn energy_time(&self) -> f64 {
        self.classic_time() + self.pme_time()
    }

    /// Sums a phase's bucket over all ranks (basis for the percentage
    /// breakdowns of Figures 4/6/8b).
    pub fn phase_breakdown(&self, phase: Phase) -> PhaseBucket {
        let mut total = PhaseBucket::default();
        for s in &self.per_rank {
            total.add(s.bucket(phase));
        }
        total
    }

    /// Breakdown of the *total* energy calculation (classic + PME),
    /// summed over ranks — Figure 8b.
    pub fn energy_breakdown(&self) -> PhaseBucket {
        let mut total = self.phase_breakdown(Phase::Classic);
        total.add(&self.phase_breakdown(Phase::Pme));
        total
    }

    /// Percentages `(comp, comm, sync)` of a bucket, summing to 100.
    pub fn percentages(bucket: &PhaseBucket) -> (f64, f64, f64) {
        let t = bucket.total();
        if t <= 0.0 {
            return (100.0, 0.0, 0.0);
        }
        (
            100.0 * bucket.comp / t,
            100.0 * bucket.comm / t,
            100.0 * bucket.sync / t,
        )
    }

    /// Per-node average/min/max communication speed (Figure 7).
    pub fn throughput_summary(&self) -> Option<ThroughputSummary> {
        summarize_throughput(self.per_rank.iter().flat_map(|s| s.throughput.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> RunReport {
        let mut r0 = RankStats::default();
        r0.bucket_mut(Phase::Classic).comp = 3.0;
        r0.bucket_mut(Phase::Classic).comm = 1.0;
        r0.bucket_mut(Phase::Pme).comp = 2.0;
        let mut r1 = RankStats::default();
        r1.bucket_mut(Phase::Classic).comp = 2.0;
        r1.bucket_mut(Phase::Classic).sync = 3.0;
        r1.bucket_mut(Phase::Pme).comp = 1.0;
        RunReport {
            cluster: ClusterConfig::uni(2, cpc_cluster::NetworkKind::TcpGigE),
            middleware: Middleware::Mpi,
            steps: 10,
            per_rank: vec![r0, r1],
            wall_time: 9.0,
            step_energies: vec![],
            final_positions: vec![],
            final_velocities: vec![],
        }
    }

    #[test]
    fn phase_time_is_max_over_ranks() {
        let r = dummy_report();
        assert_eq!(r.classic_time(), 5.0); // rank 1: 2 + 3
        assert_eq!(r.pme_time(), 2.0);
        assert_eq!(r.energy_time(), 7.0);
    }

    #[test]
    fn breakdown_sums_ranks() {
        let r = dummy_report();
        let b = r.phase_breakdown(Phase::Classic);
        assert_eq!(b.comp, 5.0);
        assert_eq!(b.comm, 1.0);
        assert_eq!(b.sync, 3.0);
        let e = r.energy_breakdown();
        assert_eq!(e.comp, 8.0);
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let r = dummy_report();
        let (comp, comm, sync) = RunReport::percentages(&r.phase_breakdown(Phase::Classic));
        assert!((comp + comm + sync - 100.0).abs() < 1e-9);
        assert!((comp - 500.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_bucket_percentages() {
        let (comp, comm, sync) = RunReport::percentages(&PhaseBucket::default());
        assert_eq!((comp, comm, sync), (100.0, 0.0, 0.0));
    }
}
