//! Jacobson/Karels round-trip-time estimation (RFC 6298 weights) for
//! adaptive retransmission timeouts.
//!
//! The static transport model retries on a `rto_floor × backoff^k`
//! timer calibrated to the *fault-free* network. Under an injected
//! link degradation the real delivery time can sit well above that
//! floor, so every retry round pays a timer that has nothing to do
//! with the observed channel. An [`RttEstimator`] tracks the smoothed
//! RTT (SRTT) and its variance (RTTVAR) from delivered-message wire
//! times and yields `SRTT + 4·RTTVAR`, the classic TCP retransmission
//! timeout, which the caller clamps to the network's `[floor, max]`
//! envelope.
//!
//! Determinism: estimator state is a pure fold over the sequence of
//! observed samples, which in the simulator are themselves
//! deterministic functions of the (seed, channel, counter) RNG
//! streams — replaying a run replays the estimator exactly.

/// Smoothed RTT / RTT-variance state for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    samples: u64,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

impl RttEstimator {
    /// An estimator with no samples; [`rto`](Self::rto) is `None`
    /// until the first observation, so callers fall back to the static
    /// model and fault-free behaviour is unchanged.
    pub fn new() -> Self {
        RttEstimator {
            srtt: 0.0,
            rttvar: 0.0,
            samples: 0,
        }
    }

    /// Folds one delivered-message wire time into the estimate.
    /// Non-finite or negative samples are ignored.
    pub fn observe(&mut self, sample: f64) {
        if !sample.is_finite() || sample < 0.0 {
            return;
        }
        if self.samples == 0 {
            self.srtt = sample;
            self.rttvar = sample / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - sample).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * sample;
        }
        self.samples += 1;
    }

    /// Smoothed round-trip time, `None` before the first sample.
    pub fn srtt(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.srtt)
    }

    /// `SRTT + 4·RTTVAR`, `None` before the first sample.
    pub fn rto(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.srtt + 4.0 * self.rttvar)
    }

    /// Number of samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_yields_no_estimate() {
        let est = RttEstimator::new();
        assert_eq!(est.rto(), None);
        assert_eq!(est.srtt(), None);
        assert_eq!(est.samples(), 0);
    }

    #[test]
    fn first_sample_seeds_srtt_and_half_variance() {
        let mut est = RttEstimator::new();
        est.observe(0.1);
        assert_eq!(est.srtt(), Some(0.1));
        assert_eq!(est.rto(), Some(0.1 + 4.0 * 0.05));
    }

    #[test]
    fn steady_samples_converge_and_variance_decays() {
        let mut est = RttEstimator::new();
        for _ in 0..200 {
            est.observe(0.02);
        }
        let srtt = est.srtt().unwrap();
        let rttvar = (est.rto().unwrap() - srtt) / 4.0;
        assert!((srtt - 0.02).abs() < 1e-9, "srtt {srtt}");
        assert!(rttvar < 1e-9, "rttvar {rttvar}");
    }

    #[test]
    fn degraded_channel_raises_the_timeout() {
        let mut fast = RttEstimator::new();
        let mut slow = RttEstimator::new();
        for i in 0..50 {
            fast.observe(0.01);
            // 4x wire factor plus jitter.
            slow.observe(0.04 + 0.01 * f64::from(i % 3));
        }
        assert!(slow.rto().unwrap() > 3.0 * fast.rto().unwrap());
    }

    #[test]
    fn bogus_samples_are_ignored() {
        let mut est = RttEstimator::new();
        est.observe(f64::NAN);
        est.observe(f64::INFINITY);
        est.observe(-1.0);
        assert_eq!(est.samples(), 0);
        est.observe(0.5);
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn estimation_is_a_pure_fold() {
        let samples = [0.01, 0.03, 0.015, 0.09, 0.02];
        let mut a = RttEstimator::new();
        let mut b = RttEstimator::new();
        for &s in &samples {
            a.observe(s);
            b.observe(s);
        }
        assert_eq!(a, b);
    }
}
