//! Algorithm-based fault tolerance (ABFT) primitives.
//!
//! The replicated-data decomposition computes every array redundantly:
//! each rank integrates the same atoms, spreads the same charges and
//! reduces the same partial energies. That redundancy makes silent data
//! corruption *checkable* with invariants intrinsic to the MD algorithm
//! itself, without perturbing the arithmetic being checked:
//!
//! * **time-bracketed tile checksums** — digest an array when it is
//!   produced (e.g. forces right after the reduction) and verify the
//!   digest when it is consumed (right before the kick). Any bit that
//!   changed in between is localized to a tile of [`DEFAULT_TILE`]
//!   atoms and can be recomputed in place;
//! * **physics invariants** — Newton's third law makes pairwise forces
//!   sum to zero ([`force_sum_residual`]) and B-spline interpolation
//!   partitions unity so the PME charge grid sums to the total system
//!   charge;
//! * **replica voting** — ranks exchange one compact digest of their
//!   replicated state per energy call; a strict-majority [`vote`]
//!   localizes a minority rank whose replica diverged.
//!
//! All digests are order-dependent folds over raw IEEE-754 bit
//! patterns, so checks are bit-exact: a fault-free run produces zero
//! [`Corruption`] verdicts by construction, and a single flipped bit
//! anywhere in a checked array is detected with certainty (up to a
//! 2^-64 hash collision). Digests that travel between ranks are masked
//! to `DIGEST_BITS` bits so they are exactly representable as `f64`
//! payloads on the existing control channel.

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default number of atoms per checksum tile.
pub const DEFAULT_TILE: usize = 8;

/// Digests exchanged between ranks are masked to this many bits so the
/// value round-trips exactly through an `f64` control-message payload
/// (integers below 2^53 are exactly representable).
pub(crate) const DIGEST_BITS: u32 = 52;

/// Mask selecting the low `DIGEST_BITS` bits of a digest.
pub const DIGEST_MASK: u64 = (1u64 << DIGEST_BITS) - 1;

/// SplitMix64 finalizer: a cheap avalanche so a single flipped input
/// bit flips ~half the digest bits.
#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Order-dependent digest of raw `f64` bit patterns.
///
/// `-0.0` and `+0.0` hash differently on purpose: the checksums guard
/// bit-exact replication, not numerical equality.
pub fn scalar_digest(xs: &[f64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64; // pi fractional bits
    for x in xs {
        h = mix(h ^ x.to_bits()).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// Order-dependent combination of already-computed digests.
pub fn combine_digests(digests: &[u64]) -> u64 {
    let mut h = 0x1319_8a2e_0370_7344u64;
    for d in digests {
        h = mix(h ^ d).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// Order-dependent digest of a `Vec3` slice (component-wise).
pub fn vec3_digest(vs: &[Vec3]) -> u64 {
    let mut h = 0x4528_21e6_38d0_1377u64; // e fractional bits
    for v in vs {
        h = mix(h ^ v.x.to_bits());
        h = mix(h ^ v.y.to_bits());
        h = mix(h ^ v.z.to_bits()).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// Per-tile digests of a `Vec3` array: tile `t` covers atoms
/// `t*tile .. (t+1)*tile`. A corrupted atom is localized to its tile.
pub fn tile_digests(vs: &[Vec3], tile: usize) -> Vec<u64> {
    let tile = tile.max(1);
    vs.chunks(tile).map(vec3_digest).collect()
}

/// Indices of tiles whose digests differ between the recorded
/// (production-time) and observed (consumption-time) checksums.
pub fn mismatched_tiles(recorded: &[u64], observed: &[u64]) -> Vec<usize> {
    if recorded.len() != observed.len() {
        // A length change is itself a corruption of every tile involved.
        return (0..recorded.len().max(observed.len())).collect();
    }
    recorded
        .iter()
        .zip(observed)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(t, _)| t)
        .collect()
}

/// Relative residual of Newton's third law: `|Σ f| / max(Σ |f|, 1)`.
///
/// Pairwise forces cancel exactly in exact arithmetic; floating-point
/// reassociation leaves a residual many orders of magnitude below any
/// corruption a high-bit flip introduces.
pub fn force_sum_residual(forces: &[Vec3]) -> f64 {
    let mut sum = Vec3::ZERO;
    let mut scale = 0.0;
    for f in forces {
        sum += *f;
        scale += f.norm();
    }
    sum.norm() / scale.max(1.0)
}

/// Strict-majority vote over per-rank digests.
///
/// Returns the lowest rank whose digest disagrees with the value held
/// by a strict majority of the voters, or `None` when the voters agree
/// or no value reaches a strict majority (corruption is then detected
/// but cannot be localized to a rank).
pub fn vote(votes: &[(usize, u64)]) -> Option<usize> {
    if votes.len() < 3 {
        return None; // two voters cannot out-vote each other
    }
    let majority = votes.iter().find_map(|(_, candidate)| {
        let support = votes.iter().filter(|(_, d)| d == candidate).count();
        (2 * support > votes.len()).then_some(*candidate)
    })?;
    votes
        .iter()
        .filter(|(_, d)| *d != majority)
        .map(|(rank, _)| *rank)
        .min()
}

/// Which ABFT check fired, with the evidence it saw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// The replicated position array diverged from the redundant
    /// integration prediction in this checksum tile.
    Positions {
        /// Index of the corrupted tile.
        tile: usize,
    },
    /// The force array changed between the reduction that produced it
    /// and the kick that consumes it.
    Forces {
        /// Index of the corrupted tile.
        tile: usize,
    },
    /// Newton's-third-law force sum exceeded tolerance.
    ForceSum {
        /// Observed relative residual.
        residual: f64,
    },
    /// The PME charge grid no longer sums to the total system charge.
    PmeGrid {
        /// Observed relative residual.
        residual: f64,
    },
    /// Per-block checksums failed across the distributed-FFT transpose.
    Transpose {
        /// Number of corrupted blocks.
        blocks: usize,
    },
    /// Cross-rank replica vote localized a minority rank.
    Replica {
        /// Rank whose replicated state diverged.
        rank: usize,
    },
}

/// A typed verdict: an ABFT check detected corrupted data at `step`.
///
/// The verdict localizes the fault (tile or rank) so the degradation
/// ladder can respond proportionately: targeted recompute of the tile,
/// then rollback to the last checkpoint, then eviction of the rank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Corruption {
    /// Step whose computation the corrupted data fed.
    pub step: u64,
    /// The check that fired and what it localized.
    pub kind: CorruptionKind,
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: ", self.step)?;
        match self.kind {
            CorruptionKind::Positions { tile } => {
                write!(f, "position checksum mismatch in tile {tile}")
            }
            CorruptionKind::Forces { tile } => {
                write!(f, "force checksum mismatch in tile {tile}")
            }
            CorruptionKind::ForceSum { residual } => {
                write!(f, "Newton force-sum residual {residual:.3e} over tolerance")
            }
            CorruptionKind::PmeGrid { residual } => {
                write!(f, "PME grid-charge residual {residual:.3e} over tolerance")
            }
            CorruptionKind::Transpose { blocks } => {
                write!(f, "{blocks} corrupted FFT-transpose block(s)")
            }
            CorruptionKind::Replica { rank } => {
                write!(f, "replica vote isolated rank {rank}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdc::flip_vec3_bit;

    fn sample_positions(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Vec3::new(0.37 * t - 1.5, (0.11 * t).sin() * 4.0, 2.0 - 0.05 * t * t)
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest_and_localizes_the_tile() {
        let clean = sample_positions(24);
        let want = tile_digests(&clean, DEFAULT_TILE);
        for atom in [0, 7, 8, 23] {
            for axis in 0..3 {
                for bit in 0..64u8 {
                    let mut vs = clean.clone();
                    flip_vec3_bit(&mut vs, atom, axis, bit).expect("flip applies");
                    let got = tile_digests(&vs, DEFAULT_TILE);
                    let bad = mismatched_tiles(&want, &got);
                    assert_eq!(
                        bad,
                        vec![atom / DEFAULT_TILE],
                        "atom {atom} axis {axis} bit {bit} must be caught in its tile"
                    );
                }
            }
        }
    }

    #[test]
    fn digests_are_order_sensitive_and_distinguish_signed_zero() {
        assert_ne!(scalar_digest(&[1.0, 2.0]), scalar_digest(&[2.0, 1.0]));
        assert_ne!(scalar_digest(&[0.0]), scalar_digest(&[-0.0]));
        let a = [Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO];
        let b = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        assert_ne!(vec3_digest(&a), vec3_digest(&b));
    }

    #[test]
    fn masked_digest_roundtrips_through_f64_exactly() {
        let d = vec3_digest(&sample_positions(9)) & DIGEST_MASK;
        assert_eq!((d as f64) as u64, d);
    }

    #[test]
    fn vote_localizes_a_strict_minority_and_abstains_otherwise() {
        assert_eq!(vote(&[(0, 7), (1, 7), (2, 9), (3, 7)]), Some(2));
        assert_eq!(vote(&[(0, 7), (1, 7), (2, 7)]), None, "agreement");
        assert_eq!(vote(&[(0, 1), (1, 2)]), None, "two voters cannot vote");
        assert_eq!(vote(&[(0, 1), (1, 2), (2, 3), (3, 1)]), None, "no majority");
    }

    #[test]
    fn newton_residual_is_tiny_for_action_reaction_pairs_and_flags_flips() {
        let mut forces = Vec::new();
        for i in 0..12 {
            let f = Vec3::new(1.0 + 0.3 * i as f64, -2.0 + 0.1 * i as f64, 0.7);
            forces.push(f);
            forces.push(-f);
        }
        assert!(force_sum_residual(&forces) < 1e-14);
        flip_vec3_bit(&mut forces, 3, 1, 60).expect("flip applies");
        assert!(force_sum_residual(&forces) > 1e-3);
    }

    #[test]
    fn corruption_verdicts_render_their_localization() {
        let c = Corruption {
            step: 4,
            kind: CorruptionKind::Positions { tile: 2 },
        };
        assert_eq!(
            c.to_string(),
            "step 4: position checksum mismatch in tile 2"
        );
        let r = Corruption {
            step: 9,
            kind: CorruptionKind::Replica { rank: 1 },
        };
        assert_eq!(r.to_string(), "step 9: replica vote isolated rank 1");
    }
}
