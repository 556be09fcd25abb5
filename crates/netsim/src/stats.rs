//! Per-rank timing statistics: the paper's breakdown of every phase
//! into computation, communication (data transfer) and synchronization
//! (control transfer), plus per-node communication-speed samples
//! (Figure 7).

use serde::{Deserialize, Serialize};

/// Phases of the CHARMM energy calculation (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// The classic (time-domain) energy calculation.
    Classic,
    /// The PME (frequency-domain) energy calculation.
    Pme,
    /// Integration and bookkeeping.
    Integrate,
    /// Setup, I/O, everything else.
    Other,
    /// Failure recovery: shrinking the decomposition and restoring
    /// state from a checkpoint after a rank crash.
    Recovery,
}

impl Phase {
    /// All phases in a fixed order (array indexing).
    pub const ALL: [Phase; 5] = [
        Phase::Classic,
        Phase::Pme,
        Phase::Integrate,
        Phase::Other,
        Phase::Recovery,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Classic => 0,
            Phase::Pme => 1,
            Phase::Integrate => 2,
            Phase::Other => 3,
            Phase::Recovery => 4,
        }
    }
}

/// How a message participates in the paper's time classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Data transfer: counted as communication time.
    Payload,
    /// Control transfer / coherency: counted as synchronization time.
    Control,
}

/// Time bucket for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBucket {
    /// Computation seconds.
    pub comp: f64,
    /// Communication (data transfer) seconds.
    pub comm: f64,
    /// Synchronization (control transfer) seconds.
    pub sync: f64,
}

impl PhaseBucket {
    /// Total wall-clock seconds in this phase.
    pub fn total(&self) -> f64 {
        self.comp + self.comm + self.sync
    }

    /// Adds another bucket.
    pub fn add(&mut self, other: &PhaseBucket) {
        self.comp += other.comp;
        self.comm += other.comm;
        self.sync += other.sync;
    }

    /// Books computation time. Debug builds reject negative or
    /// non-finite bookings so fault-path re-costing bugs fail fast
    /// instead of corrupting reports.
    pub(crate) fn book_comp(&mut self, seconds: f64) {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid computation booking: {seconds}"
        );
        self.comp += seconds;
    }

    /// Books communication (data transfer) time; see
    /// [`book_comp`](Self::book_comp) for the validity contract.
    pub(crate) fn book_comm(&mut self, seconds: f64) {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid communication booking: {seconds}"
        );
        self.comm += seconds;
    }

    /// Books synchronization (control transfer) time; see
    /// [`book_comp`](Self::book_comp) for the validity contract.
    pub(crate) fn book_sync(&mut self, seconds: f64) {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid synchronization booking: {seconds}"
        );
        self.sync += seconds;
    }
}

/// One observed transfer rate (Figure 7's response variable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSample {
    /// Node that observed the transfer (receiver side).
    pub node: usize,
    /// Message size in bytes.
    pub bytes: usize,
    /// Achieved rate in bytes/second over the wire portion.
    pub rate: f64,
}

/// Statistics collected by one rank over a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankStats {
    /// Per-phase time buckets, one per [`Phase`], in `Phase::ALL` order.
    pub buckets: [PhaseBucket; 5],
    /// Per-transfer rate samples for payload messages.
    pub throughput: Vec<ThroughputSample>,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Total messages sent (any class).
    pub msgs_sent: u64,
    /// Total retransmission rounds this rank's sends went through
    /// (always 0 on a fault-free run).
    pub retransmits: u64,
    /// Messages this rank sent that the transport gave up on (each
    /// became a tombstone at the receiver).
    pub msgs_lost: u64,
    /// Per-message trace (populated only when
    /// [`crate::ClusterConfig::record_trace`] is set).
    pub trace: Vec<crate::trace::TraceEvent>,
}

impl RankStats {
    /// Bucket for a phase.
    pub fn bucket(&self, phase: Phase) -> &PhaseBucket {
        &self.buckets[phase.index()]
    }

    /// Mutable bucket for a phase.
    pub fn bucket_mut(&mut self, phase: Phase) -> &mut PhaseBucket {
        &mut self.buckets[phase.index()]
    }

    /// Sum over all phases.
    pub fn total(&self) -> PhaseBucket {
        let mut t = PhaseBucket::default();
        for b in &self.buckets {
            t.add(b);
        }
        t
    }
}

/// Aggregate min/avg/max of throughput samples (MB/s), per the paper's
/// Figure 7 presentation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSummary {
    /// Average rate, MB/s.
    pub avg: f64,
    /// Minimum observed rate, MB/s.
    pub min: f64,
    /// Maximum observed rate, MB/s.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarizes throughput samples into MB/s statistics. Returns `None`
/// when there are no samples.
pub fn summarize_throughput<'a>(
    samples: impl IntoIterator<Item = &'a ThroughputSample>,
) -> Option<ThroughputSummary> {
    let mb = 1e6;
    let mut n = 0usize;
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for s in samples {
        let r = s.rate / mb;
        sum += r;
        min = min.min(r);
        max = max.max(r);
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(ThroughputSummary {
            avg: sum / n as f64,
            min,
            max,
            samples: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_totals() {
        let mut b = PhaseBucket {
            comp: 1.0,
            comm: 0.5,
            sync: 0.25,
        };
        assert_eq!(b.total(), 1.75);
        b.add(&PhaseBucket {
            comp: 1.0,
            comm: 1.0,
            sync: 1.0,
        });
        assert_eq!(b.total(), 4.75);
    }

    #[test]
    fn rank_stats_aggregate() {
        let mut s = RankStats::default();
        s.bucket_mut(Phase::Classic).comp = 2.0;
        s.bucket_mut(Phase::Pme).comm = 1.0;
        s.bucket_mut(Phase::Integrate).sync = 0.5;
        let t = s.total();
        assert_eq!(t.comp, 2.0);
        assert_eq!(t.comm, 1.0);
        assert_eq!(t.sync, 0.5);
    }

    #[test]
    fn throughput_summary() {
        let samples = vec![
            ThroughputSample {
                node: 0,
                bytes: 1000,
                rate: 10e6,
            },
            ThroughputSample {
                node: 0,
                bytes: 1000,
                rate: 30e6,
            },
            ThroughputSample {
                node: 1,
                bytes: 1000,
                rate: 20e6,
            },
        ];
        let s = summarize_throughput(&samples).unwrap();
        assert_eq!(s.samples, 3);
        assert!((s.avg - 20.0).abs() < 1e-9);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
    }

    #[test]
    fn empty_throughput_is_none() {
        assert!(summarize_throughput(&[]).is_none());
    }

    #[test]
    fn phase_indices_are_unique() {
        let mut seen = [false; Phase::ALL.len()];
        for p in Phase::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn booking_helpers_accumulate() {
        let mut b = PhaseBucket::default();
        b.book_comp(1.0);
        b.book_comm(0.5);
        b.book_sync(0.25);
        b.book_comp(0.0); // zero is a valid booking
        assert_eq!(b.total(), 1.75);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid communication booking")]
    fn negative_booking_is_rejected_in_debug() {
        PhaseBucket::default().book_comm(-1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid synchronization booking")]
    fn nan_booking_is_rejected_in_debug() {
        PhaseBucket::default().book_sync(f64::NAN);
    }
}
