//! The parallel *classic* energy calculation (paper Figure 2, left):
//! every rank evaluates its block of the replicated pair list and the
//! bonded terms, then partial forces and energies are combined with an
//! all-to-all collective (CHARMM's global force combine).

use crate::decomp::{classic_partition, pair_cuts, ClassicPartition};
use crate::memo::{classic_prefix, positions_digest, Digest, KernelMemo, KernelOutput};
use cpc_cluster::{CostModel, Phase};
use cpc_md::bonded::{bonded_energy_forces_range, BondedEnergies};
use cpc_md::nonbonded::{nonbonded_energy_forces, NonbondedEnergies, NonbondedOptions};
use cpc_md::{System, Vec3};
use cpc_mpi::{CombineAlgo, Comm};

/// Result of one classic energy evaluation, identical on every rank
/// after the combine.
#[derive(Debug, Clone)]
pub struct ClassicResult {
    /// Bonded energies (global).
    pub bonded: BondedEnergies,
    /// Nonbonded energies (global).
    pub nonbonded: NonbondedEnergies,
    /// Global forces (sum of all ranks' partials).
    pub forces: Vec<Vec3>,
}

impl ClassicResult {
    /// Total classic potential energy.
    pub fn energy(&self) -> f64 {
        self.bonded.total() + self.nonbonded.total()
    }

    /// Bit-exact ABFT digest over the combined partial energies and
    /// force array (see `cpc_md::abft`). Pure side read: the digest
    /// never feeds back into the accumulation it checks.
    pub fn abft_digest(&self) -> u64 {
        cpc_md::abft::combine_digests(&[
            self.bonded.abft_digest(),
            self.nonbonded.abft_digest(),
            cpc_md::abft::vec3_digest(&self.forces),
        ])
    }
}

/// Evaluates the classic energy in parallel. `pairs` is the (replicated)
/// pair list; all ranks must pass identical arguments.
///
/// Charges computation time from operation counts and books the force
/// combine as communication in the `Classic` phase.
pub fn classic_energy_parallel(
    comm: &mut Comm<'_>,
    system: &System,
    pairs: &[(u32, u32)],
    opts: &NonbondedOptions,
    cost: &CostModel,
) -> ClassicResult {
    classic_energy_parallel_with(comm, system, pairs, opts, cost, CombineAlgo::Flat)
}

/// [`classic_energy_parallel`] with an explicit combine algorithm (the
/// ablation hook).
pub fn classic_energy_parallel_with(
    comm: &mut Comm<'_>,
    system: &System,
    pairs: &[(u32, u32)],
    opts: &NonbondedOptions,
    cost: &CostModel,
    combine: CombineAlgo,
) -> ClassicResult {
    classic_energy_parallel_weighted(comm, system, pairs, opts, cost, combine, None, None)
}

/// This rank's share of the classic energy: its pair block and its
/// bonded blocks, accumulated into a zeroed force array.
fn rank_kernel(
    system: &System,
    my_pairs: &[(u32, u32)],
    part: &ClassicPartition,
    opts: &NonbondedOptions,
) -> KernelOutput {
    let topo = &system.topology;
    let mut forces = vec![Vec3::ZERO; system.n_atoms()];
    let (nonbonded, pairs_evaluated) = nonbonded_energy_forces(
        topo,
        &system.pbox,
        &system.positions,
        my_pairs,
        opts,
        &mut forces,
    );
    let (bonded, bonded_terms) = bonded_energy_forces_range(
        topo,
        &system.pbox,
        &system.positions,
        &mut forces,
        part.bonds.clone(),
        part.angles.clone(),
        part.dihedrals.clone(),
        part.impropers.clone(),
    );
    KernelOutput {
        forces,
        bonded,
        nonbonded,
        pairs_evaluated,
        bonded_terms,
    }
}

/// The paper's platform factors of the cell `comm` runs in — network,
/// CPUs per node, middleware — packed into one word: the factors that
/// never move a bit of the trajectory, and so the ones the memo shares
/// a kernel output across.
fn platform_of(comm: &mut Comm<'_>) -> u64 {
    let middleware = comm.middleware() as u64;
    let cluster = comm.ctx().config();
    (cluster.network as u64) << 32 | (cluster.cpus_per_node as u64) << 8 | middleware
}

/// [`classic_energy_parallel_with`] with optional per-rank capacity
/// weights for the nonbonded pair partition (the degraded-mode
/// rebalancing hook: a suspected straggler gets a share proportional
/// to its measured speed). `caps[r]` weights logical rank `r`; `None`
/// — and uniform weights — reproduce the unweighted cuts exactly, so
/// fault-free runs stay bit-identical.
///
/// With a `memo`, this rank's kernel output is looked up by the
/// content of everything the kernel reads and computed only on a miss
/// (or when this cell's platform is the only one that ever asked for
/// it); the compute charge and the combine below run identically
/// either way. Callers that measure the kernel or may perturb its
/// inputs or outputs out of band (faults, SDC, ABFT) pass `None`.
#[allow(clippy::too_many_arguments)]
pub fn classic_energy_parallel_weighted(
    comm: &mut Comm<'_>,
    system: &System,
    pairs: &[(u32, u32)],
    opts: &NonbondedOptions,
    cost: &CostModel,
    combine: CombineAlgo,
    caps: Option<&[f64]>,
    memo: Option<&KernelMemo>,
) -> ClassicResult {
    let memo = memo.map(|memo| (memo, positions_digest(system)));
    classic_energy_keyed(
        comm, system, pairs, opts, cost, combine, caps, memo, &mut None,
    )
    .0
}

/// [`classic_energy_parallel_weighted`] for a caller that keeps the
/// static part of its content key between evaluations and has digested
/// the box and the positions ([`positions_digest`]), which `memo` holds
/// beside the memo. `prefix` is filled on the first memoised call
/// ([`classic_prefix`] of this rank's share) and continued with that
/// digest on every one; the caller must empty it whenever `pairs`, the
/// rank count or `caps` change. Also returns whether the partials were
/// served from the memo, which the PME tail plan follows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classic_energy_keyed(
    comm: &mut Comm<'_>,
    system: &System,
    pairs: &[(u32, u32)],
    opts: &NonbondedOptions,
    cost: &CostModel,
    combine: CombineAlgo,
    caps: Option<&[f64]>,
    memo: Option<(&KernelMemo, u128)>,
    prefix: &mut Option<Digest>,
) -> (ClassicResult, bool) {
    let p = comm.size();
    let r = comm.rank();
    comm.ctx().set_phase(Phase::Classic);

    let topo = &system.topology;
    let part = classic_partition(
        pairs.len(),
        topo.bonds.len(),
        topo.angles.len(),
        topo.dihedrals.len(),
        topo.impropers.len(),
        topo.n_atoms(),
        p,
        r,
    );

    // Nonbonded work: CHARMM assigns pair (i, j) to the owner of atom
    // i, with atom blocks weighted by neighbour count so the pair work
    // is balanced (granularity leaves a small residual imbalance that
    // shows up as wait time at the combine, as in the real code).
    let cuts = pair_cuts(pairs, p, caps);
    let my_block = cuts[r]..cuts[r + 1];
    let kernel = || rank_kernel(system, &pairs[my_block.clone()], &part, opts);
    let (computed, stored);
    let mut served = false;
    let out: &KernelOutput = match memo {
        Some((memo, positions)) => {
            let key = prefix
                .get_or_insert_with(|| classic_prefix(system, pairs, &my_block, &part, opts))
                .at(positions)
                .finish();
            (stored, served) = memo.serve_or_compute(key, platform_of(comm), kernel);
            &stored
        }
        None => {
            computed = kernel();
            &computed
        }
    };

    // Charge the computation.
    let skipped = my_block.len() - out.pairs_evaluated;
    let t = out.pairs_evaluated as f64 * cost.pair_eval
        + skipped as f64 * cost.list_pair
        + out.bonded_terms as f64 * cost.bonded_term;
    comm.ctx().charge_compute(t);

    // CHARMM-style combine: forces and energies in one master-based
    // global sum (GCOMB — the "all-to-all collective" of Figure 2).
    let n = system.n_atoms();
    let mut buf = Vec::with_capacity(3 * n + 6);
    for f in &out.forces {
        buf.extend_from_slice(&[f.x, f.y, f.z]);
    }
    buf.extend_from_slice(&[
        out.bonded.bond,
        out.bonded.angle,
        out.bonded.dihedral,
        out.bonded.improper,
        out.nonbonded.vdw,
        out.nonbonded.elec,
    ]);
    comm.allreduce_with(combine, &mut buf);

    let (f, e) = buf.split_at(3 * n);
    let result = ClassicResult {
        bonded: BondedEnergies {
            bond: e[0],
            angle: e[1],
            dihedral: e[2],
            improper: e[3],
        },
        nonbonded: NonbondedEnergies {
            vdw: e[4],
            elec: e[5],
        },
        forces: f
            .chunks_exact(3)
            .map(|c| Vec3::new(c[0], c[1], c[2]))
            .collect(),
    };
    (result, served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind, PIII_1GHZ};
    use cpc_md::builder::water_box;
    use cpc_md::neighbor::NeighborList;
    use cpc_md::{EnergyModel, Evaluator};
    use cpc_mpi::Middleware;

    #[test]
    fn parallel_matches_sequential_for_all_rank_counts() {
        let system = water_box(3, 3.1);
        // Sequential reference.
        let mut evaluator = Evaluator::new(EnergyModel::Classic);
        let mut f_ref = vec![Vec3::ZERO; system.n_atoms()];
        let (report, _) = evaluator.evaluate(&system, &mut f_ref);

        let opts = NonbondedOptions::classic();
        let list = NeighborList::build(
            &system.topology,
            &system.pbox,
            &system.positions,
            opts.cutoff,
            2.0,
        );

        for p in [1usize, 2, 3, 4, 8] {
            let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
            let sys = &system;
            let pairs = &list.pairs;
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                classic_energy_parallel(&mut comm, sys, pairs, &opts, &PIII_1GHZ)
            });
            for o in &out {
                let got = &o.result;
                assert!(
                    (got.energy() - report.classic_part()).abs() < 1e-8,
                    "p={p}: {} vs {}",
                    got.energy(),
                    report.classic_part()
                );
                for (a, b) in got.forces.iter().zip(&f_ref) {
                    assert!((*a - *b).norm() < 1e-8, "p={p}");
                }
            }
        }
    }

    #[test]
    fn compute_time_shrinks_with_ranks() {
        let system = water_box(3, 3.1);
        let opts = NonbondedOptions::classic();
        let list = NeighborList::build(
            &system.topology,
            &system.pbox,
            &system.positions,
            opts.cutoff,
            2.0,
        );
        let comp_time = |p: usize| {
            let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
            let sys = &system;
            let pairs = &list.pairs;
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                classic_energy_parallel(&mut comm, sys, pairs, &opts, &PIII_1GHZ);
            });
            out.iter()
                .map(|o| o.stats.bucket(Phase::Classic).comp)
                .fold(0.0, f64::max)
        };
        let t1 = comp_time(1);
        let t4 = comp_time(4);
        // Atom-block decomposition is deliberately imbalanced (as in
        // CHARMM); the slowest rank still gets well under half.
        assert!(t4 < 0.6 * t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn combine_books_communication_time() {
        let system = water_box(2, 3.1);
        let opts = NonbondedOptions::classic();
        let list = NeighborList::build(
            &system.topology,
            &system.pbox,
            &system.positions,
            opts.cutoff,
            2.0,
        );
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let sys = &system;
        let pairs = &list.pairs;
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            classic_energy_parallel(&mut comm, sys, pairs, &opts, &PIII_1GHZ);
        });
        assert!(out
            .iter()
            .any(|o| o.stats.bucket(Phase::Classic).comm > 0.0));
    }
}
