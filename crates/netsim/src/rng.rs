//! Deterministic SplitMix64 generator used for network jitter.
//!
//! Jitter must be reproducible *regardless of thread interleaving*, so
//! every (source, destination) channel derives an independent stream
//! keyed by a per-channel message counter — the sequence seen by a
//! message depends only on program order on its own channel.

/// SplitMix64 PRNG state.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives a generator for one message on one channel.
    pub fn for_message(seed: u64, src: usize, dst: usize, counter: u64) -> Self {
        let mut h = seed ^ 0x9E3779B97F4A7C15;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9) ^ (src as u64).wrapping_mul(0x94D049BB133111EB);
        h = h.wrapping_mul(0xBF58476D1CE4E5B9) ^ (dst as u64).wrapping_add(0xD6E8FEB86659FD93);
        h = h.wrapping_mul(0xBF58476D1CE4E5B9) ^ counter;
        SplitMix64 { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Symmetric triangular variate in `(-1, 1)` (sum of two uniforms).
    pub(crate) fn next_triangular(&mut self) -> f64 {
        self.next_f64() + self.next_f64() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_message() {
        let mut a = SplitMix64::for_message(7, 1, 2, 10);
        let mut b = SplitMix64::for_message(7, 1, 2, 10);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_channels_differ() {
        let a = SplitMix64::for_message(7, 1, 2, 0).next_u64();
        let b = SplitMix64::for_message(7, 2, 1, 0).next_u64();
        let c = SplitMix64::for_message(7, 1, 2, 1).next_u64();
        let d = SplitMix64::for_message(8, 1, 2, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / 4000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn triangular_is_centered() {
        let mut rng = SplitMix64::new(11);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let v = rng.next_triangular();
            assert!((-1.0..1.0).contains(&v));
            sum += v;
        }
        assert!(sum.abs() / 4000.0 < 0.03);
    }
}
