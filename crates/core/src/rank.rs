//! One replicated-data MD rank: what it owns and the three moves of a
//! velocity-Verlet step — `evaluate`, `drift`, `kick` — each entered
//! through a synchronization point and closed by a collective, as in
//! the paper's Figure 2.
//!
//! Both drivers are loops over these moves. [`crate::driver`] is the
//! bare loop; [`crate::recover`] puts its detection, ABFT, SDC,
//! watchdog, ladder and checkpoint hooks *between* them, and so cannot
//! drift away from the measured step: there is one list upkeep, one
//! classic call, one PME dispatch, one coordinate exchange.

use crate::classic::classic_energy_keyed;
use crate::decomp::{block_range, pair_cuts};
use crate::driver::{MdConfig, PmeImpl};
use crate::memo::{positions_digest, CellMemo, Digest};
use crate::pme_par::ParallelPme;
use crate::pme_spatial::SpatialPme;
use cpc_cluster::{CostModel, Phase};
use cpc_md::energy::EnergyModel;
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::NonbondedOptions;
use cpc_md::units::ACCEL_CONV;
use cpc_md::{System, Vec3};
use cpc_mpi::Comm;
use std::borrow::Cow;

/// Neighbour-list skin used by the parallel engine (matches the
/// sequential [`cpc_md::Evaluator`]).
const SKIN: f64 = 2.0;

fn nonbonded_options(model: EnergyModel) -> NonbondedOptions {
    match model {
        EnergyModel::Classic => NonbondedOptions::classic(),
        EnergyModel::Pme(p) => NonbondedOptions::pme_direct(p.beta),
    }
}

/// The pair list of a cell's start state. Every rank starts from the
/// same replicated coordinates, so it is built once per cell — before
/// any rank exists — and borrowed by all of them.
pub(crate) fn initial_list(start: &System, model: EnergyModel) -> NeighborList {
    NeighborList::build(
        &start.topology,
        &start.pbox,
        &start.positions,
        nonbonded_options(model).cutoff,
        SKIN,
    )
}

enum PmeEngine {
    Replicated(ParallelPme),
    Spatial(SpatialPme),
}

/// ABFT evidence gathered as side reads during one force evaluation
/// (all zero when the rank is not armed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EvalProbe {
    /// Digest over the combined classic partial energies and forces.
    pub classic_digest: u64,
    /// Newton's-third-law residual over the classic (pairwise) forces.
    pub force_sum_residual: f64,
    /// PME grid-charge residual (0 without PME).
    pub grid_residual: f64,
    /// Corrupted distributed-FFT transpose blocks (0 without PME).
    pub transpose_faults: usize,
}

/// What one [`RankMd::evaluate`] produced, identical on every rank.
pub(crate) struct Evaluation {
    pub forces: Vec<Vec3>,
    pub classic: f64,
    pub pme: f64,
    pub probe: EvalProbe,
}

/// What one rank of the replicated-data engine owns.
pub(crate) struct RankMd<'a> {
    /// This rank's copy of the replicated system.
    pub sys: System,
    /// The forces the next half-kick consumes. The caller stores an
    /// [`Evaluation`]'s here once it trusts them.
    pub forces: Vec<Vec3>,
    /// The cell's shared list until this rank has to rebuild, its own
    /// copy from then on.
    list: Cow<'a, NeighborList>,
    pme: Option<PmeEngine>,
    /// Capacity weights of the live members in logical-rank order
    /// (`None` = uniform, the exact unweighted cuts).
    caps: Option<Vec<f64>>,
    memo: Option<&'a CellMemo<'a>>,
    /// The static part of this rank's classic content key, saved by the
    /// first memoised evaluation after a list build or a repartition —
    /// the only two places that write what it digests — and emptied by
    /// both.
    prefix: Option<Digest>,
    /// Whether evaluations gather ABFT evidence (and charge for it).
    abft: bool,
    cfg: &'a MdConfig,
    opts: NonbondedOptions,
    cost: CostModel,
}

impl<'a> RankMd<'a> {
    /// A rank at the cell's start state, partitioned uniformly over
    /// `comm`, charged its share of the list build (the build is
    /// distributed across ranks in parallel CHARMM). `list` must be
    /// [`initial_list`] of `start`.
    pub fn new(
        comm: &mut Comm<'_>,
        cfg: &'a MdConfig,
        start: &System,
        list: &'a NeighborList,
        memo: Option<&'a CellMemo<'a>>,
        abft: bool,
    ) -> Self {
        let mut rank = RankMd {
            sys: start.clone(),
            forces: Vec::new(),
            list: Cow::Borrowed(list),
            pme: None,
            caps: None,
            memo,
            prefix: None,
            abft,
            cfg,
            opts: nonbonded_options(cfg.model),
            cost: comm.ctx().config().cost,
        };
        rank.repartition(comm.size(), None);
        comm.ctx().set_phase(Phase::Classic);
        rank.charge_list_share(comm);
        rank
    }

    /// Re-derives the decomposition for `p` live members weighted by
    /// `caps`: the pair cuts follow `caps` at the next evaluation, the
    /// slab-partitioned PME state is rebuilt here. (The spatial engine
    /// balances through its own domain decomposition; capacity weights
    /// apply to slab planes only.)
    pub fn repartition(&mut self, p: usize, caps: Option<Vec<f64>>) {
        let tuning = self.cfg.tuning;
        self.pme = match self.cfg.model {
            EnergyModel::Classic => None,
            EnergyModel::Pme(params) => Some(match self.cfg.pme_impl {
                PmeImpl::Replicated => {
                    let mut engine = ParallelPme::new(params, p)
                        .with_grid_sum(tuning.grid_sum)
                        .with_force_combine(tuning.force_combine)
                        .with_abft(self.abft);
                    if let Some(caps) = &caps {
                        engine = engine.with_plane_weights(caps);
                    }
                    PmeEngine::Replicated(engine)
                }
                PmeImpl::Spatial => PmeEngine::Spatial(
                    SpatialPme::new(params, p).with_force_combine(tuning.force_combine),
                ),
            }),
        };
        self.caps = caps;
        self.prefix = None;
    }

    /// The current capacity weights (`None` = uniform).
    pub fn caps(&self) -> Option<&[f64]> {
        self.caps.as_deref()
    }

    /// Pairs the current cuts assign to this rank.
    pub fn pair_share(&self, comm: &Comm<'_>) -> usize {
        let cuts = pair_cuts(&self.list.pairs, comm.size(), self.caps());
        cuts[comm.rank() + 1] - cuts[comm.rank()]
    }

    fn charge_list_share(&self, comm: &mut Comm<'_>) {
        let build = self.list.pairs.len() as f64 * 2.5 * self.cost.list_build_pair;
        let p = comm.size() as f64;
        comm.ctx().charge_compute(build / p);
    }

    /// List upkeep: rebuilds the pair list when an atom has outrun the
    /// skin and charges this rank's share to the current phase.
    pub fn refresh_list(&mut self, comm: &mut Comm<'_>) {
        if self.list.needs_rebuild(&self.sys.pbox, &self.sys.positions) {
            self.list
                .to_mut()
                .rebuild(&self.sys.topology, &self.sys.pbox, &self.sys.positions);
            self.prefix = None;
            self.charge_list_share(comm);
        }
    }

    /// One full force evaluation over the current communicator: list
    /// upkeep, the synchronization point entering the energy
    /// calculation, the classic phase, then the PME phase closed by
    /// its own barrier.
    pub fn evaluate(&mut self, comm: &mut Comm<'_>) -> Evaluation {
        comm.ctx().set_phase(Phase::Classic);
        self.refresh_list(comm);
        comm.barrier();
        // The box and the positions, digested once for both content keys.
        let keyed = self.memo.map(|cell| (cell, positions_digest(&self.sys)));
        let (classic, served) = classic_energy_keyed(
            comm,
            &self.sys,
            &self.list.pairs,
            &self.opts,
            &self.cost,
            self.cfg.tuning.force_combine,
            self.caps.as_deref(),
            keyed.map(|(cell, positions)| (cell.memo, positions)),
            &mut self.prefix,
        );
        let mut probe = EvalProbe::default();
        if self.abft {
            // Side reads over the reduced array: a digest for replica
            // voting and the Newton invariant. The pairwise forces cancel
            // exactly up to reassociation noise; PME interpolation forces
            // do not, so the invariant is checked on the classic part.
            comm.ctx()
                .charge_compute(2.0 * self.sys.n_atoms() as f64 * self.cost.conv_point);
            probe.classic_digest = classic.abft_digest();
            probe.force_sum_residual = cpc_md::abft::force_sum_residual(&classic.forces);
        }
        let classic_energy = classic.energy();
        let mut forces = classic.forces;
        let mut pme_energy = 0.0;
        if let Some(pme) = &self.pme {
            let kr = match pme {
                PmeEngine::Replicated(e) => {
                    let memo = keyed.map(|(cell, positions)| (cell, positions, served));
                    e.energy_forces_served(comm, &self.sys, &self.cost, memo)
                }
                PmeEngine::Spatial(e) => e.energy_forces(comm, &self.sys, &self.cost),
            };
            for (f, kf) in forces.iter_mut().zip(&kr.forces) {
                *f += *kf;
            }
            pme_energy = kr.energy();
            if let Some(p) = kr.abft {
                probe.grid_residual = p.grid_residual;
                probe.transpose_faults = p.transpose_faults;
            }
            comm.barrier();
        }
        Evaluation {
            forces,
            classic: classic_energy,
            pme: pme_energy,
            probe,
        }
    }

    /// Velocity of atom `i` half a kick on.
    fn half_kicked(&self, i: usize) -> Vec3 {
        let inv_m = ACCEL_CONV / self.sys.topology.atoms[i].class.mass();
        self.sys.velocities[i] + self.forces[i] * (0.5 * self.cfg.dt * inv_m)
    }

    /// Where [`Self::drift`] will put atom `i`, by its owner's own
    /// arithmetic: the ABFT redundant integration predicts every
    /// published coordinate bit for bit.
    pub fn drifted(&self, i: usize) -> Vec3 {
        self.sys.positions[i] + self.half_kicked(i) * self.cfg.dt
    }

    /// First half-kick and drift. As in parallel CHARMM each rank
    /// integrates its own atom block, then the updated coordinates are
    /// exchanged: every rank needs all positions for the replicated
    /// energy evaluation.
    pub fn drift(&mut self, comm: &mut Comm<'_>) {
        comm.ctx().set_phase(Phase::Integrate);
        let mine = block_range(self.sys.n_atoms(), comm.size(), comm.rank());
        for i in mine.clone() {
            let v_half = self.half_kicked(i);
            self.sys.velocities[i] = v_half;
            self.sys.positions[i] += v_half * self.cfg.dt;
        }
        comm.ctx()
            .charge_compute(mine.len() as f64 * self.cost.integrate_atom);
        publish(comm, &mut self.sys.positions);
    }

    /// Second half-kick of the own block, then the velocity exchange
    /// that makes the kinetic energy globally consistent.
    pub fn kick(&mut self, comm: &mut Comm<'_>) {
        comm.ctx().set_phase(Phase::Integrate);
        let mine = block_range(self.sys.n_atoms(), comm.size(), comm.rank());
        for i in mine.clone() {
            self.sys.velocities[i] = self.half_kicked(i);
        }
        comm.ctx()
            .charge_compute(mine.len() as f64 * self.cost.integrate_atom);
        publish(comm, &mut self.sys.velocities);
    }
}

/// Allgather of every rank's own block of `xs` into every rank's `xs`.
fn publish(comm: &mut Comm<'_>, xs: &mut [Vec3]) {
    let (n, p) = (xs.len(), comm.size());
    let mine: Vec<f64> = xs[block_range(n, p, comm.rank())]
        .iter()
        .flat_map(|v| [v.x, v.y, v.z])
        .collect();
    comm.allgather_with(mine, |src, part| {
        for (x, c) in xs[block_range(n, p, src)]
            .iter_mut()
            .zip(part.chunks_exact(3))
        {
            *x = Vec3::new(c[0], c[1], c[2]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::classic_partition;
    use crate::memo::{classic_key, KernelMemo};
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind};
    use cpc_fft::Dims3;
    use cpc_md::builder::water_box;
    use cpc_md::pme::PmeParams;
    use cpc_mpi::Middleware;

    /// What the rank's next memoised evaluation would look up: its saved
    /// prefix, then the positions.
    fn saved_key(rank: &RankMd<'_>) -> u128 {
        let prefix = rank
            .prefix
            .as_ref()
            .expect("a memoised evaluation saves it");
        prefix.at(positions_digest(&rank.sys)).finish()
    }

    /// The same key from scratch: cuts, bonded ranges and every word.
    fn scratch_key(rank: &RankMd<'_>, comm: &Comm<'_>) -> u128 {
        let (pairs, t) = (&rank.list.pairs, &rank.sys.topology);
        let (p, r) = (comm.size(), comm.rank());
        let cuts = pair_cuts(pairs, p, rank.caps());
        let part = classic_partition(
            pairs.len(),
            t.bonds.len(),
            t.angles.len(),
            t.dihedrals.len(),
            t.impropers.len(),
            t.n_atoms(),
            p,
            r,
        );
        classic_key(&rank.sys, pairs, &(cuts[r]..cuts[r + 1]), &part, &rank.opts)
    }

    /// The saved prefix is dropped wherever what it digests is written:
    /// through a list rebuild (a box hot enough to outrun the 2 A skin
    /// inside the run) and through a repartition under non-uniform
    /// capacities, prefix-then-positions is the from-scratch key after
    /// every evaluation — and the prefix a skipped invalidation would
    /// have left behind is not.
    #[test]
    fn the_saved_prefix_never_outlives_what_it_digests() {
        // 15.5 A of box: wider than the 12 A reach, so the list is a
        // proper subset of all pairs and a rebuild changes it.
        let mut start = water_box(5, 3.1);
        start.assign_velocities(6000.0, 11);
        let model = EnergyModel::Pme(PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta: 0.34,
        });
        let p = 3;
        let cluster = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
        let cfg = MdConfig::paper_protocol(model, Middleware::Mpi, cluster);
        let list = initial_list(&start, model);
        let memo = KernelMemo::new();
        let cell = memo.cell();
        let steps_to_rebuild = run_cluster(cluster, |ctx| {
            let mut comm = Comm::new(ctx, cfg.middleware);
            let mut rank = RankMd::new(&mut comm, &cfg, &start, &list, Some(&cell), false);
            assert!(rank.prefix.is_none());
            rank.forces = rank.evaluate(&mut comm).forces;
            assert_eq!(saved_key(&rank), scratch_key(&rank, &comm));

            let mut steps = 0;
            while matches!(rank.list, Cow::Borrowed(_)) {
                steps += 1;
                assert!(steps <= 60, "the box never outran its skin");
                let kept = rank.prefix.clone().expect("saved by the last evaluation");
                rank.drift(&mut comm);
                rank.forces = rank.evaluate(&mut comm).forces;
                rank.kick(&mut comm);
                assert_eq!(saved_key(&rank), scratch_key(&rank, &comm), "step {steps}");
                // Planted: `refresh_list` forgetting to drop the prefix.
                let stale = kept.at(positions_digest(&rank.sys)).finish();
                let rebuilt = matches!(rank.list, Cow::Owned(_));
                assert_eq!(stale != scratch_key(&rank, &comm), rebuilt, "step {steps}");
            }

            let kept = rank.prefix.clone().expect("saved by the last evaluation");
            rank.repartition(p, Some(vec![1.0, 0.4, 2.0]));
            assert!(rank.prefix.is_none());
            rank.evaluate(&mut comm);
            assert_eq!(saved_key(&rank), scratch_key(&rank, &comm));
            // Planted: `repartition` forgetting to.
            assert_ne!(
                kept.at(positions_digest(&rank.sys)).finish(),
                scratch_key(&rank, &comm)
            );
            steps
        });
        assert!(steps_to_rebuild.iter().all(|o| o.result >= 2));
        assert_eq!(
            memo.stats().classic.hits,
            0,
            "one platform: nothing is served"
        );
    }
}
