//! Verlet pair lists built through a periodic cell (linked-list) grid.
//!
//! The list stores all non-excluded pairs within `cutoff + skin` of each
//! other and is rebuilt when any atom has moved more than `skin / 2`
//! since the last build — the standard displacement criterion.

use crate::pbc::PbcBox;
use crate::topology::Topology;
use crate::vec3::Vec3;

/// A half pair list (`i < j`) of candidate interacting pairs.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// Candidate pairs, each within `cutoff + skin` at build time.
    pub pairs: Vec<(u32, u32)>,
    cutoff: f64,
    skin: f64,
    reference: Vec<Vec3>,
}

impl NeighborList {
    /// Builds a fresh list.
    ///
    /// # Panics
    /// Panics if `cutoff + skin` exceeds the minimum half-edge of the box
    /// (the minimum-image convention would be violated).
    pub fn build(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        cutoff: f64,
        skin: f64,
    ) -> Self {
        let mut pairs = Vec::new();
        build_pairs_into(topo, pbox, positions, cutoff + skin, &mut pairs);
        NeighborList {
            pairs,
            cutoff,
            skin,
            reference: positions.to_vec(),
        }
    }

    /// The cutoff this list was built for.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// The skin distance.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// True when some atom has drifted more than `skin / 2` from its
    /// position at build time.
    ///
    /// # Panics
    /// Panics if `positions` is not the atom count the list was built
    /// for: the answer for a resized system would be about other atoms.
    pub fn needs_rebuild(&self, pbox: &PbcBox, positions: &[Vec3]) -> bool {
        assert_eq!(
            positions.len(),
            self.reference.len(),
            "the list was built for another atom count"
        );
        let limit = self.skin * 0.5;
        let limit2 = limit * limit;
        positions
            .iter()
            .zip(&self.reference)
            .any(|(&p, &r)| pbox.min_image(p, r).norm_sqr() > limit2)
    }

    /// Rebuilds in place, reusing the pair vector's allocation.
    ///
    /// # Panics
    /// As [`build`](Self::build), if the list's reach exceeds half of
    /// `pbox`.
    pub fn rebuild(&mut self, topo: &Topology, pbox: &PbcBox, positions: &[Vec3]) {
        let reach = self.cutoff + self.skin;
        self.pairs.clear();
        build_pairs_into(topo, pbox, positions, reach, &mut self.pairs);
        self.reference.clear();
        self.reference.extend_from_slice(positions);
    }
}

/// Half-width of the band around `reach^2` inside which a candidate is
/// decided by [`PbcBox::min_image`] itself, in units of
/// `reach * (reach + span)` with `span` the largest box edge or
/// coordinate magnitude. The cheap squared distance of the cell search
/// differs from that predicate's by rounding only, at most
/// `~8e-15 * reach * (reach + span)` (DESIGN.md §24): outside the band
/// the two agree with five orders of margin at any coordinate scale, and
/// inside it only one of them is asked. Never narrower than a relative
/// 1e-9 of `reach^2`.
const EXACT_BAND: f64 = 1e-9;

/// Appends every non-excluded pair within `reach`, in ascending
/// `(i, j)` order. The order is a contract: `relieve_clashes` moves
/// atoms pair by pair in list order, `balanced_pair_cuts` cuts rank
/// blocks out of it and every force accumulation follows it.
fn build_pairs_into(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &[Vec3],
    reach: f64,
    pairs: &mut Vec<(u32, u32)>,
) {
    // Checked here, the one entry `build` and `rebuild` share: beyond
    // half the box a pair has more than one image within reach and the
    // minimum-image convention no longer names the interaction.
    assert!(
        reach <= pbox.min_half_edge() + 1e-9,
        "cutoff + skin ({reach}) exceeds half the box ({})",
        pbox.min_half_edge()
    );
    let n = positions.len();
    let reach2 = reach * reach;
    let within =
        |i: usize, j: usize| pbox.min_image(positions[i], positions[j]).norm_sqr() < reach2;

    // Grid resolution: cells at least `reach` wide in each dimension.
    let l = pbox.lengths;
    let ncx = (l.x / reach).floor().max(1.0) as usize;
    let ncy = (l.y / reach).floor().max(1.0) as usize;
    let ncz = (l.z / reach).floor().max(1.0) as usize;
    let ncell = ncx * ncy * ncz;

    if ncell < 27 {
        // Too few cells for the stencil to prune anything; do the O(N^2)
        // sweep (still exact).
        for i in 0..n {
            for j in (i + 1)..n {
                if within(i, j) && !topo.is_excluded(i, j) {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        return;
    }

    // Counting sort of the atoms by cell: afterwards cell `c` holds
    // `order[start[c]..start[c + 1]]`, ascending in atom index. (Counts
    // go in two slots up so that the fill pass, which advances slot
    // `c + 1`, leaves every boundary where the line above reads it.)
    let wrapped: Vec<Vec3> = positions.iter().map(|&p| pbox.wrap(p)).collect();
    let mut start = vec![0usize; ncell + 2];
    let cell_of: Vec<usize> = wrapped
        .iter()
        .map(|w| {
            let cx = ((w.x / l.x * ncx as f64) as usize).min(ncx - 1);
            let cy = ((w.y / l.y * ncy as f64) as usize).min(ncy - 1);
            let cz = ((w.z / l.z * ncz as f64) as usize).min(ncz - 1);
            (cx * ncy + cy) * ncz + cz
        })
        .collect();
    for &c in &cell_of {
        start[c + 2] += 1;
    }
    for c in 2..ncell + 2 {
        start[c] += start[c - 1];
    }
    let mut order = vec![0u32; n];
    for (i, &c) in cell_of.iter().enumerate() {
        order[start[c + 1]] = i as u32;
        start[c + 1] += 1;
    }

    // One cell at a time: gather the atoms of the (up to) 27 cells
    // around it in ascending index with their wrapped coordinates side
    // by side, then give every atom `i` of the cell one contiguous scan
    // over the `j > i` among them. Survivors come out in ascending `j`,
    // so a row needs no sort; rows are parked in `found` and emitted in
    // ascending `i` at the end, so the list needs none either.
    let span = positions.iter().fold(l.x.max(l.y).max(l.z), |m, p| {
        m.max(p.x.abs()).max(p.y.abs()).max(p.z.abs())
    });
    let band = EXACT_BAND * reach * (reach + span);
    let (sure, maybe) = (reach2 - band, reach2 + band);
    let mut hood: Vec<u32> = Vec::new();
    let (mut hx, mut hy, mut hz) = (Vec::new(), Vec::new(), Vec::new());
    let mut d2: Vec<f64> = Vec::new();
    let mut found: Vec<u32> = Vec::new();
    let mut rows = vec![0..0; n];
    for cx in 0..ncx {
        for cy in 0..ncy {
            for cz in 0..ncz {
                let c = (cx * ncy + cy) * ncz + cz;
                let members = &order[start[c]..start[c + 1]];
                if members.is_empty() {
                    continue;
                }
                hood.clear();
                for nx in axis_neighbours(cx, ncx) {
                    for ny in axis_neighbours(cy, ncy) {
                        for nz in axis_neighbours(cz, ncz) {
                            let nc = (nx * ncy + ny) * ncz + nz;
                            hood.extend_from_slice(&order[start[nc]..start[nc + 1]]);
                        }
                    }
                }
                hood.sort_unstable();
                hx.clear();
                hy.clear();
                hz.clear();
                hx.extend(hood.iter().map(|&j| wrapped[j as usize].x));
                hy.extend(hood.iter().map(|&j| wrapped[j as usize].y));
                hz.extend(hood.iter().map(|&j| wrapped[j as usize].z));
                d2.resize(hood.len(), 0.0);

                for &i in members {
                    let from = hood.partition_point(|&j| j <= i);
                    let wi = wrapped[i as usize];
                    // Branch-free and index-free, so it runs in vector
                    // lanes; deciding is left to the pass below.
                    for (((d2, &x), &y), &z) in d2[from..]
                        .iter_mut()
                        .zip(&hx[from..])
                        .zip(&hy[from..])
                        .zip(&hz[from..])
                    {
                        let dx = image_distance(wi.x - x, l.x);
                        let dy = image_distance(wi.y - y, l.y);
                        let dz = image_distance(wi.z - z, l.z);
                        *d2 = dx * dx + dy * dy + dz * dz;
                    }
                    let begin = found.len();
                    for (js, ds) in hood[from..].chunks(64).zip(d2[from..].chunks(64)) {
                        // One bit per candidate that is not clearly out
                        // of reach (about one in five): the branch on
                        // that outcome is taken per set bit, not per
                        // candidate.
                        let mut near = 0u64;
                        for (k, &d) in ds.iter().enumerate() {
                            near |= u64::from(d < maybe) << k;
                        }
                        while near != 0 {
                            let k = near.trailing_zeros() as usize;
                            near &= near - 1;
                            if ds[k] < sure || within(i as usize, js[k] as usize) {
                                found.push(js[k]);
                            }
                        }
                    }
                    if found.len() > begin {
                        // Row and exclusion list both ascend.
                        for e in &topo.exclusions[i as usize] {
                            if let Ok(at) = found[begin..].binary_search(e) {
                                found.remove(begin + at);
                            }
                        }
                    }
                    rows[i as usize] = begin..found.len();
                }
            }
        }
    }

    pairs.reserve(found.len());
    for (i, run) in rows.into_iter().enumerate() {
        pairs.extend(found[run].iter().map(|&j| (i as u32, j)));
    }
}

/// The distinct cells among `c - 1`, `c`, `c + 1` on a periodic axis of
/// `n` cells (on an axis of one or two cells the offsets alias).
fn axis_neighbours(c: usize, n: usize) -> impl Iterator<Item = usize> {
    [c, (c + 1) % n, (c + n - 1) % n].into_iter().take(n)
}

/// Distance to the nearest periodic image along one axis, from the
/// difference of two wrapped coordinates (`|d| <= l`): the smaller of
/// `|d|` and `l - |d|`.
#[inline]
fn image_distance(d: f64, l: f64) -> f64 {
    let here = d.abs();
    let wrapped = l - here;
    if wrapped < here {
        wrapped
    } else {
        here
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::AtomClass;
    use crate::topology::Atom;

    fn random_positions(n: usize, pbox: &PbcBox, seed: u64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut rng = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng() * pbox.lengths.x,
                    rng() * pbox.lengths.y,
                    rng() * pbox.lengths.z,
                )
            })
            .collect()
    }

    fn free_topo(n: usize) -> Topology {
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::CT,
                    charge: 0.0
                };
                n
            ],
            ..Default::default()
        };
        topo.rebuild_exclusions();
        topo
    }

    fn brute_force(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        reach: f64,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let reach2 = reach * reach;
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if pbox.min_image(positions[i], positions[j]).norm_sqr() < reach2
                    && !topo.is_excluded(i, j)
                {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_large_box() {
        let pbox = PbcBox::new(40.0, 35.0, 50.0);
        let topo = free_topo(200);
        let positions = random_positions(200, &pbox, 17);
        let list = NeighborList::build(&topo, &pbox, &positions, 9.0, 1.0);
        let mut got = list.pairs.clone();
        got.sort_unstable();
        let mut want = brute_force(&topo, &pbox, &positions, 10.0);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_brute_force_small_box_fallback() {
        // Box too small for a 3x3x3 stencil: exercises the O(N^2) path.
        let pbox = PbcBox::new(12.0, 12.0, 12.0);
        let topo = free_topo(60);
        let positions = random_positions(60, &pbox, 3);
        let list = NeighborList::build(&topo, &pbox, &positions, 5.0, 0.5);
        let mut got = list.pairs.clone();
        got.sort_unstable();
        let mut want = brute_force(&topo, &pbox, &positions, 5.5);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn respects_exclusions() {
        let pbox = PbcBox::new(30.0, 30.0, 30.0);
        let mut topo = free_topo(3);
        topo.bonds.push(crate::topology::Bond {
            i: 0,
            j: 1,
            param: crate::forcefield::params::BOND_HEAVY,
        });
        topo.rebuild_exclusions();
        let positions = vec![
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(2.0, 1.0, 1.0),
            Vec3::new(3.0, 1.0, 1.0),
        ];
        let list = NeighborList::build(&topo, &pbox, &positions, 8.0, 1.0);
        assert!(
            !list.pairs.contains(&(0, 1)),
            "bonded pair must be excluded"
        );
        assert!(list.pairs.contains(&(0, 2)));
        assert!(list.pairs.contains(&(1, 2)));
    }

    #[test]
    fn rebuild_criterion() {
        let pbox = PbcBox::new(40.0, 40.0, 40.0);
        let topo = free_topo(10);
        let mut positions = random_positions(10, &pbox, 5);
        let list = NeighborList::build(&topo, &pbox, &positions, 9.0, 2.0);
        assert!(!list.needs_rebuild(&pbox, &positions));
        positions[3].x += 0.9; // less than skin/2
        assert!(!list.needs_rebuild(&pbox, &positions));
        positions[3].x += 0.3; // now over skin/2 total
        assert!(list.needs_rebuild(&pbox, &positions));
    }

    #[test]
    fn rebuild_refreshes_reference() {
        let pbox = PbcBox::new(40.0, 40.0, 40.0);
        let topo = free_topo(20);
        let mut positions = random_positions(20, &pbox, 9);
        let mut list = NeighborList::build(&topo, &pbox, &positions, 9.0, 2.0);
        for p in &mut positions {
            p.x += 3.0;
        }
        assert!(list.needs_rebuild(&pbox, &positions));
        list.rebuild(&topo, &pbox, &positions);
        assert!(!list.needs_rebuild(&pbox, &positions));
        // And the rebuilt list is still exact.
        let mut got = list.pairs.clone();
        got.sort_unstable();
        let mut want = brute_force(&topo, &pbox, &positions, 11.0);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn wrap_around_pairs_found() {
        // Atoms across the periodic boundary must pair up.
        let pbox = PbcBox::new(40.0, 40.0, 40.0);
        let topo = free_topo(2);
        let positions = vec![Vec3::new(0.5, 20.0, 20.0), Vec3::new(39.5, 20.0, 20.0)];
        let list = NeighborList::build(&topo, &pbox, &positions, 9.0, 1.0);
        assert_eq!(list.pairs, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "exceeds half the box")]
    fn rebuild_into_a_box_smaller_than_twice_the_reach_is_rejected() {
        // `rebuild` takes the box as an argument: a list built at reach
        // 10 A in a 40 A box must not be rebuilt in an 18 A one.
        let topo = free_topo(2);
        let positions = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let mut list =
            NeighborList::build(&topo, &PbcBox::new(40.0, 40.0, 40.0), &positions, 9.0, 1.0);
        list.rebuild(&topo, &PbcBox::new(18.0, 40.0, 40.0), &positions);
    }

    #[test]
    #[should_panic(expected = "another atom count")]
    fn needs_rebuild_rejects_a_resized_system() {
        // Zipping against the reference used to ignore the atoms beyond
        // it and answer "no rebuild" for a system that had grown.
        let pbox = PbcBox::new(40.0, 40.0, 40.0);
        let positions = random_positions(10, &pbox, 5);
        let list = NeighborList::build(&free_topo(10), &pbox, &positions, 9.0, 2.0);
        let mut grown = positions.clone();
        grown.push(positions[0] + Vec3::new(5.0, 0.0, 0.0));
        let _ = list.needs_rebuild(&pbox, &grown);
    }

    #[test]
    fn linked_cell_list_comes_out_in_ascending_order() {
        // 4x3x5 cells: the order is the contract (DESIGN.md §24), and
        // nothing sorts the list after the fact any more.
        let pbox = PbcBox::new(40.0, 35.0, 50.0);
        let topo = free_topo(300);
        let positions = random_positions(300, &pbox, 23);
        let list = NeighborList::build(&topo, &pbox, &positions, 9.0, 1.0);
        assert!(list.pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(list.pairs, brute_force(&topo, &pbox, &positions, 10.0));
    }

    #[test]
    #[should_panic]
    fn oversized_cutoff_rejected() {
        let pbox = PbcBox::new(15.0, 40.0, 40.0);
        let topo = free_topo(2);
        let positions = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let _ = NeighborList::build(&topo, &pbox, &positions, 8.0, 1.0);
    }
}
