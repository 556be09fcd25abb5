//! Work decomposition for the replicated-data parallel CHARMM engine:
//! block partitions of the pair list and bonded terms (classic energy)
//! and slab/column partitions of the PME mesh.

use std::ops::Range;

/// Splits `n` items into `p` contiguous blocks as evenly as possible
/// and returns the range of block `r`.
///
/// The first `n % p` blocks receive one extra item.
pub fn block_range(n: usize, p: usize, r: usize) -> Range<usize> {
    assert!(p > 0 && r < p, "invalid block request ({r} of {p})");
    let base = n / p;
    let extra = n % p;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    start..(start + len).min(n)
}

/// Partition of one rank's share of the classic energy calculation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClassicPartition {
    /// Pair-list index range evaluated by this rank.
    pub pairs: Range<usize>,
    /// Bond index range.
    pub bonds: Range<usize>,
    /// Angle index range.
    pub angles: Range<usize>,
    /// Dihedral index range.
    pub dihedrals: Range<usize>,
    /// Improper index range.
    pub impropers: Range<usize>,
    /// Excluded-pair block (Ewald corrections in the PME model; the
    /// work, not the exclusions themselves, is partitioned).
    pub excl_atoms: Range<usize>,
}

/// Computes rank `r`'s classic-phase share.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classic_partition(
    n_pairs: usize,
    n_bonds: usize,
    n_angles: usize,
    n_dihedrals: usize,
    n_impropers: usize,
    n_atoms: usize,
    p: usize,
    r: usize,
) -> ClassicPartition {
    ClassicPartition {
        pairs: block_range(n_pairs, p, r),
        bonds: block_range(n_bonds, p, r),
        angles: block_range(n_angles, p, r),
        dihedrals: block_range(n_dihedrals, p, r),
        impropers: block_range(n_impropers, p, r),
        excl_atoms: block_range(n_atoms, p, r),
    }
}

/// Pair-list cut points for `p` ranks, aligned to atom boundaries and
/// balanced by *pair count* (CHARMM weights its atom partition by each
/// atom's neighbour count). Returns `p + 1` indices into `pairs`.
///
/// Granularity leaves a small residual imbalance — as in the real
/// code — but removes the gross protein-vs-solvent skew of naive
/// equal-atom blocks.
pub fn balanced_pair_cuts(pairs: &[(u32, u32)], p: usize) -> Vec<usize> {
    assert!(p > 0);
    let n = pairs.len();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0);
    for r in 1..p {
        let target = r * n / p;
        // Advance to the next atom boundary at or after the target so a
        // single atom's pairs never split across ranks.
        let mut idx = target;
        while idx < n && idx > 0 && pairs[idx].0 == pairs[idx - 1].0 {
            idx += 1;
        }
        cuts.push(idx.max(*cuts.last().expect("nonempty")));
    }
    cuts.push(n);
    cuts
}

/// The cuts the classic phase works under: [`balanced_pair_cuts`], or
/// its weighted variant once capacity weights are in force.
pub(crate) fn pair_cuts(pairs: &[(u32, u32)], p: usize, caps: Option<&[f64]>) -> Vec<usize> {
    match caps {
        Some(c) => balanced_pair_cuts_weighted(pairs, p, c),
        None => balanced_pair_cuts(pairs, p),
    }
}

/// Capacity-weighted variant of [`balanced_pair_cuts`]: rank `r`
/// receives a pair share proportional to `caps[r]` (a straggling rank
/// gets a capacity below 1 and correspondingly fewer pairs). Uniform
/// capacities reproduce the unweighted cuts *exactly* — the degenerate
/// case delegates to the integer arithmetic of [`balanced_pair_cuts`]
/// so a rebalance back to uniform is bit-identical to never having
/// rebalanced.
pub(crate) fn balanced_pair_cuts_weighted(
    pairs: &[(u32, u32)],
    p: usize,
    caps: &[f64],
) -> Vec<usize> {
    assert!(p > 0);
    assert_eq!(caps.len(), p, "one capacity per rank");
    assert!(
        caps.iter().all(|&c| c.is_finite() && c > 0.0),
        "capacities must be finite and positive: {caps:?}"
    );
    if caps.iter().all(|&c| c == caps[0]) {
        return balanced_pair_cuts(pairs, p);
    }
    let n = pairs.len();
    let total: f64 = caps.iter().sum();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0);
    let mut cum = 0.0;
    for r in 1..p {
        cum += caps[r - 1];
        let target = ((n as f64 * cum / total) as usize).min(n);
        // Same atom-boundary advance as the unweighted cuts.
        let mut idx = target;
        while idx < n && idx > 0 && pairs[idx].0 == pairs[idx - 1].0 {
            idx += 1;
        }
        cuts.push(idx.max(*cuts.last().expect("nonempty")));
    }
    cuts.push(n);
    cuts
}

/// Capacity-proportional cut points splitting `n` items across `p`
/// owners: `p + 1` monotone indices with `cuts[0] == 0` and
/// `cuts[p] == n`. Shared by the weighted PME plane assignment.
pub(crate) fn weighted_cuts(n: usize, caps: &[f64]) -> Vec<usize> {
    let p = caps.len();
    assert!(p > 0);
    assert!(
        caps.iter().all(|&c| c.is_finite() && c > 0.0),
        "capacities must be finite and positive: {caps:?}"
    );
    let total: f64 = caps.iter().sum();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0);
    let mut cum = 0.0;
    for r in 1..p {
        cum += caps[r - 1];
        let target = ((n as f64 * cum / total) as usize).min(n);
        cuts.push(target.max(*cuts.last().expect("nonempty")));
    }
    cuts.push(n);
    cuts
}

/// PME mesh decomposition: x-plane slabs before the transpose, (y,z)
/// columns after it. Plane ownership is optionally capacity-weighted
/// (straggler rebalancing); the column phase stays uniform because its
/// cost is dominated by the transpose either way.
#[derive(Debug, Clone, PartialEq)]
pub struct PmeDecomp {
    /// Mesh extent along x.
    pub nx: usize,
    /// Mesh extent along y.
    pub ny: usize,
    /// Mesh extent along z.
    pub nz: usize,
    /// Number of ranks.
    pub p: usize,
    /// Capacity-weighted x-plane cut points (`p + 1` indices); `None`
    /// means the uniform [`block_range`] slabs.
    pub plane_cuts: Option<Vec<usize>>,
}

impl PmeDecomp {
    /// Creates a decomposition; requires `p >= 1`.
    pub fn new(nx: usize, ny: usize, nz: usize, p: usize) -> Self {
        assert!(p >= 1);
        PmeDecomp {
            nx,
            ny,
            nz,
            p,
            plane_cuts: None,
        }
    }

    /// Reassigns plane slabs proportionally to per-rank capacities.
    /// Uniform capacities restore the unweighted decomposition exactly.
    pub(crate) fn with_plane_weights(mut self, caps: &[f64]) -> Self {
        assert_eq!(caps.len(), self.p, "one capacity per rank");
        if caps.iter().all(|&c| c == caps[0]) {
            self.plane_cuts = None;
        } else {
            self.plane_cuts = Some(weighted_cuts(self.nx, caps));
        }
        self
    }

    /// x-plane range owned by rank `r` (slab phase).
    pub fn planes(&self, r: usize) -> Range<usize> {
        match &self.plane_cuts {
            Some(cuts) => cuts[r]..cuts[r + 1],
            None => block_range(self.nx, self.p, r),
        }
    }

    /// (y,z)-column range owned by rank `r` (transposed phase). Columns
    /// are indexed `c = y * nz + z`.
    pub fn cols(&self, r: usize) -> Range<usize> {
        block_range(self.ny * self.nz, self.p, r)
    }

    /// Which rank owns x-plane `gx`.
    pub(crate) fn plane_owner(&self, gx: usize) -> usize {
        debug_assert!(gx < self.nx);
        // Inverse of block_range; linear scan is fine for p <= 16.
        for r in 0..self.p {
            if self.planes(r).contains(&gx) {
                return r;
            }
        }
        unreachable!("plane {gx} not owned")
    }

    /// Total mesh points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 80, 81, 100] {
            for p in [1usize, 2, 3, 7, 8, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for r in 0..p {
                    let range = block_range(n, p, r);
                    assert_eq!(range.start, prev_end, "n={n} p={p} r={r}");
                    prev_end = range.end;
                    covered += range.len();
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_sizes_balanced() {
        for r in 0..8 {
            let len = block_range(82, 8, r).len();
            assert!(len == 10 || len == 11);
        }
    }

    #[test]
    fn plane_owner_is_inverse_of_planes() {
        let d = PmeDecomp::new(80, 36, 48, 8);
        for gx in 0..80 {
            let owner = d.plane_owner(gx);
            assert!(d.planes(owner).contains(&gx));
        }
    }

    #[test]
    fn columns_cover_mesh() {
        let d = PmeDecomp::new(80, 36, 48, 5);
        let total: usize = (0..5).map(|r| d.cols(r).len()).sum();
        assert_eq!(total, 36 * 48);
    }

    #[test]
    fn single_rank_owns_everything() {
        let d = PmeDecomp::new(80, 36, 48, 1);
        assert_eq!(d.planes(0), 0..80);
        assert_eq!(d.cols(0), 0..(36 * 48));
    }

    #[test]
    fn balanced_cuts_cover_and_respect_atom_boundaries() {
        let pairs: Vec<(u32, u32)> = (0..50u32)
            .flat_map(|i| (0..(if i < 10 { 8 } else { 1 })).map(move |k| (i, i + k + 1)))
            .collect();
        for p in [1usize, 2, 3, 4, 8] {
            let cuts = balanced_pair_cuts(&pairs, p);
            assert_eq!(cuts.len(), p + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(cuts[p], pairs.len());
            for w in cuts.windows(2) {
                assert!(w[0] <= w[1]);
            }
            // No atom's pairs split across a cut.
            for &c in &cuts[1..p] {
                if c > 0 && c < pairs.len() {
                    assert_ne!(pairs[c].0, pairs[c - 1].0, "cut at {c} splits an atom");
                }
            }
        }
    }

    #[test]
    fn balanced_cuts_beat_equal_atom_blocks() {
        // Dense first region, sparse second (protein vs solvent).
        let pairs: Vec<(u32, u32)> = (0..100u32)
            .flat_map(|i| (0..(if i < 50 { 9 } else { 1 })).map(move |k| (i, i + k + 1)))
            .collect();
        let cuts = balanced_pair_cuts(&pairs, 2);
        let max_block = (cuts[1] - cuts[0]).max(cuts[2] - cuts[1]) as f64;
        let mean = pairs.len() as f64 / 2.0;
        assert!(max_block < 1.1 * mean, "imbalance {}", max_block / mean);
    }

    #[test]
    fn uniform_weights_reproduce_unweighted_cuts_exactly() {
        let pairs: Vec<(u32, u32)> = (0..80u32)
            .flat_map(|i| (0..(if i < 20 { 6 } else { 2 })).map(move |k| (i, i + k + 1)))
            .collect();
        for p in [1usize, 2, 3, 4, 8] {
            for w in [1.0f64, 0.25, 7.5] {
                let caps = vec![w; p];
                assert_eq!(
                    balanced_pair_cuts_weighted(&pairs, p, &caps),
                    balanced_pair_cuts(&pairs, p),
                    "p={p} w={w}"
                );
            }
        }
    }

    #[test]
    fn weighted_cuts_cover_and_respect_atom_boundaries() {
        let pairs: Vec<(u32, u32)> = (0..50u32)
            .flat_map(|i| (0..(if i < 10 { 8 } else { 1 })).map(move |k| (i, i + k + 1)))
            .collect();
        let caps = [1.0, 0.4, 1.0, 0.7];
        let cuts = balanced_pair_cuts_weighted(&pairs, 4, &caps);
        assert_eq!(cuts.len(), 5);
        assert_eq!(cuts[0], 0);
        assert_eq!(cuts[4], pairs.len());
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &c in &cuts[1..4] {
            if c > 0 && c < pairs.len() {
                assert_ne!(pairs[c].0, pairs[c - 1].0, "cut at {c} splits an atom");
            }
        }
    }

    #[test]
    fn skewed_weights_provably_reduce_max_bucket_cost() {
        // Uniform pair density, one rank at half speed: the weighted
        // cuts must strictly reduce the pace-setting per-rank cost
        // (bucket size divided by capacity).
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i, i + 1)).collect();
        let caps = [1.0, 1.0, 1.0, 0.5];
        let cost = |cuts: &[usize]| -> f64 {
            (0..4)
                .map(|r| (cuts[r + 1] - cuts[r]) as f64 / caps[r])
                .fold(0.0, f64::max)
        };
        let uniform = cost(&balanced_pair_cuts(&pairs, 4));
        let weighted = cost(&balanced_pair_cuts_weighted(&pairs, 4, &caps));
        assert!(
            weighted < 0.7 * uniform,
            "weighted {weighted} vs uniform {uniform}"
        );
    }

    #[test]
    fn weighted_planes_cover_and_uniform_weights_restore_block_slabs() {
        let d = PmeDecomp::new(80, 36, 48, 4);
        let uniform = d.clone().with_plane_weights(&[2.0; 4]);
        assert!(uniform.plane_cuts.is_none());
        for r in 0..4 {
            assert_eq!(uniform.planes(r), d.planes(r));
        }
        let skewed = d.clone().with_plane_weights(&[1.0, 1.0, 1.0, 0.5]);
        assert!(skewed.plane_cuts.is_some());
        let mut prev_end = 0;
        let mut covered = 0;
        for r in 0..4 {
            let pl = skewed.planes(r);
            assert_eq!(pl.start, prev_end);
            prev_end = pl.end;
            covered += pl.len();
        }
        assert_eq!(covered, 80);
        assert!(
            skewed.planes(3).len() < skewed.planes(0).len(),
            "slow rank owns fewer planes"
        );
        for gx in 0..80 {
            let owner = skewed.plane_owner(gx);
            assert!(skewed.planes(owner).contains(&gx));
        }
    }

    #[test]
    fn classic_partition_covers_all_terms() {
        let p = 4;
        let mut pair_total = 0;
        for r in 0..p {
            let part = classic_partition(1000, 50, 60, 70, 10, 3552, p, r);
            pair_total += part.pairs.len();
            assert!(part.bonds.len() >= 12);
        }
        assert_eq!(pair_total, 1000);
    }
}
