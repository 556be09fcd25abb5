//! A content-addressed memo of per-rank classic-kernel outputs and PME
//! tails.
//!
//! The paper's factorial varies *platform* factors (network,
//! middleware, CPUs per node) at each processor count, and those
//! factors never change the trajectory: at a fixed decomposition every
//! rank's classic kernel reads the same bits and produces the same
//! bits in every platform cell. [`KernelMemo`] stores what one rank's
//! kernel produced — its partial forces *before* the combine, its six
//! partial energies and the op counts the cost model charges — under a
//! 128-bit digest of everything that kernel reads ([`classic_key`]),
//! so a later cell replays the identical compute charge and hands the
//! identical partials to the live combine. No message downstream of
//! the kernel is stored or skipped.
//!
//! What each rank's PME evaluation hands *its* closing combine — the
//! partial reciprocal energy of its mesh columns, the forces
//! interpolated over the gathered potential mesh plus the exclusion
//! correction, and the op counts — is a [`TailOutput`]. The tails of
//! all ranks of one evaluation are held beside the partials as one
//! entry, under a key no rank enters ([`tail_prefix`], then the box and
//! the positions). A served evaluation looks them up before it spreads
//! a charge and then computes nothing: the mesh messages a cell exists
//! to time still go out, in their order and at their sizes, carrying
//! their lengths alone, because the network model costs a message by
//! its length and never reads a value. A rank that computed would find
//! no values in them to sum into its mesh, so serving is all ranks or
//! none: the ranks of a cell share one [`CellMemo`], whose first rank
//! to reach an evaluation draws the [`TailPlan`] every other rank of it
//! is handed, whatever a concurrent cell stores or the budget evicts in
//! between.
//!
//! Sharing is *across* platform cells only. Every entry remembers the
//! platform of the cell that computed it, and a lookup from that same
//! platform computes again until some other platform has asked for the
//! entry: running one cell twice is a repeat measurement (a timing
//! loop, a determinism check) and must cost, and test, what the first
//! run did. Were it a replay, the cost of a cell would depend on what
//! the process happened to run before it. Tails follow the classic
//! partials of their evaluation: they are looked up, and stored, only
//! when the rank that draws the plan was served its partials, so a
//! process that runs a single platform holds none.
//!
//! The payload budget is a fixed constant with oldest-first eviction;
//! there is no switch: callers that must measure or perturb the kernel
//! (benches, the fault-tolerant driver) simply pass no memo.

use crate::decomp::ClassicPartition;
use cpc_md::bonded::BondedEnergies;
use cpc_md::nonbonded::{ElecMethod, NonbondedEnergies, NonbondedOptions};
use cpc_md::pme::PmeParams;
use cpc_md::topology::Topology;
use cpc_md::{System, Vec3};
use cpc_mpi::CombineAlgo;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Payload budget of a memo: 32 MiB holds the four paper trajectories
/// (p = 1, 2, 4, 8 on myoglobin: 165 classic partials, 13.4 MiB, and
/// 165 tails, 3.6 MiB) with 15 MiB to spare.
const BUDGET_BYTES: usize = 32 << 20;

/// What one rank's classic kernel produces, before the combine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutput {
    /// This rank's partial force array.
    pub forces: Vec<Vec3>,
    /// This rank's partial bonded energies.
    pub bonded: BondedEnergies,
    /// This rank's partial nonbonded energies.
    pub nonbonded: NonbondedEnergies,
    /// Pairs inside the cutoff (charged at `pair_eval`).
    pub pairs_evaluated: usize,
    /// Bonded terms evaluated (charged at `bonded_term`).
    pub bonded_terms: usize,
}

impl KernelOutput {
    fn payload_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(self.forces.as_slice())
    }
}

/// What one rank's PME evaluation hands the closing combine: the
/// k-space partial forces of its atom block (interpolation plus
/// exclusion correction), held block-dense, and the few atoms past the
/// block that the exclusion correction pushes back on — every other
/// atom of the rank's partial array is `+0.0` — with its two partial
/// energies and the op counts its compute charges replay.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TailOutput {
    /// Partial forces of the atoms `block_start..`, one per block atom.
    block_forces: Vec<Vec3>,
    /// `(atom, partial force)` of every atom outside the block whose
    /// partial force is not all `+0.0` bits.
    partners: Vec<(u32, Vec3)>,
    /// This rank's partial reciprocal energy, summed over its column
    /// block of the convolved mesh.
    pub recip_partial: f64,
    /// This rank's partial excluded-pair energy.
    pub excl_energy: f64,
    /// Mesh points interpolated (charged at `interp_point`), which are
    /// the points spread (charged at `spread_point`).
    pub interp_points: usize,
    /// Excluded pairs corrected (charged at `excl_pair`).
    pub excl_count: usize,
}

fn is_positive_zero(f: &Vec3) -> bool {
    f.x.to_bits() | f.y.to_bits() | f.z.to_bits() == 0
}

impl TailOutput {
    /// The sparse form of `forces`, a rank's partial k-space force array
    /// in which only `block` and its exclusion partners were written.
    pub fn extract(
        forces: &[Vec3],
        block: &Range<usize>,
        recip_partial: f64,
        excl_energy: f64,
        interp_points: usize,
        excl_count: usize,
    ) -> Self {
        let outside = (0..block.start).chain(block.end..forces.len());
        TailOutput {
            block_forces: forces[block.clone()].to_vec(),
            partners: outside
                .filter(|&i| !is_positive_zero(&forces[i]))
                .map(|i| (i as u32, forces[i]))
                .collect(),
            recip_partial,
            excl_energy,
            interp_points,
            excl_count,
        }
    }

    /// Writes the stored bits back into `forces`, an all-`+0.0` array:
    /// the array [`Self::extract`] read, bit for bit.
    pub fn scatter_into(&self, forces: &mut [Vec3], block_start: usize) {
        forces[block_start..][..self.block_forces.len()].copy_from_slice(&self.block_forces);
        for &(i, f) in &self.partners {
            forces[i as usize] = f;
        }
    }

    fn payload_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(self.block_forces.as_slice())
            + std::mem::size_of_val(self.partners.as_slice())
    }
}

/// Counters of one kind of entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed.
    pub misses: u64,
    /// Payload bytes currently held.
    pub bytes: usize,
}

/// Counters of a [`KernelMemo`], as printed by `campaign` and `serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Classic-kernel partials.
    pub classic: KindStats,
    /// PME tails, one per rank: every rank of an evaluation whose plan
    /// looked its tails up counts one hit, or one miss.
    pub tail: KindStats,
    /// Entries dropped to stay inside the budget, tails one per rank.
    pub evictions: u64,
    /// Entries currently held, tails one per rank.
    pub entries: usize,
}

impl MemoStats {
    /// Payload bytes currently held, both kinds.
    pub fn bytes(&self) -> usize {
        self.classic.bytes + self.tail.bytes
    }
}

impl fmt::Display for MemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
        write!(f, "kernel memo:")?;
        for (kind, s) in [("classic", &self.classic), ("tail", &self.tail)] {
            write!(
                f,
                " {kind} {} hit(s) {} miss(es) {:.1} MiB,",
                s.hits,
                s.misses,
                mib(s.bytes)
            )?;
        }
        write!(
            f,
            " {} eviction(s), {} entries",
            self.evictions, self.entries
        )
    }
}

/// A stored classic output and who may be served it.
struct Entry {
    out: Arc<KernelOutput>,
    /// Platform of the cell that computed the output.
    origin: u64,
    /// Whether a cell of another platform has asked for it since.
    shared: bool,
}

/// The tails of one evaluation, rank `r`'s at index `r`.
pub(crate) type TailGroup = Arc<[TailOutput]>;

fn group_bytes(group: &[TailOutput]) -> usize {
    group.iter().map(TailOutput::payload_bytes).sum()
}

#[derive(Clone, Copy)]
enum Kind {
    Classic,
    Tail,
}

#[derive(Default)]
struct Inner {
    classic: HashMap<u128, Entry>,
    tails: HashMap<u128, TailGroup>,
    /// Keys of both kinds in insertion order, oldest first.
    order: VecDeque<(Kind, u128)>,
    /// `entries` is left at zero here and read off the maps on request.
    stats: MemoStats,
}

impl Inner {
    fn bytes_of(&mut self, kind: Kind) -> &mut usize {
        match kind {
            Kind::Classic => &mut self.stats.classic.bytes,
            Kind::Tail => &mut self.stats.tail.bytes,
        }
    }

    /// Evicts oldest-first until `bytes` more fit under `budget`, then
    /// books them to `kind` under `key`. The caller inserts the entry.
    /// An evaluation's tails go as the one entry they came in as.
    fn make_room(&mut self, budget: usize, kind: Kind, key: u128, bytes: usize) {
        while self.stats.bytes() + bytes > budget {
            let (old_kind, oldest) = self.order.pop_front().expect("bytes held imply an entry");
            let dropped = match old_kind {
                Kind::Classic => {
                    let entry = self
                        .classic
                        .remove(&oldest)
                        .expect("ordered keys are stored");
                    self.stats.classic.bytes -= entry.out.payload_bytes();
                    1
                }
                Kind::Tail => {
                    let group = self.tails.remove(&oldest).expect("ordered keys are stored");
                    self.stats.tail.bytes -= group_bytes(&group);
                    group.len()
                }
            };
            self.stats.evictions += dropped as u64;
        }
        self.order.push_back((kind, key));
        *self.bytes_of(kind) += bytes;
    }
}

/// Thread-safe, byte-budgeted store of [`KernelOutput`]s and PME tails
/// by content key.
pub struct KernelMemo {
    budget: usize,
    inner: Mutex<Inner>,
}

impl Default for KernelMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelMemo {
    /// An empty memo with the fixed payload budget.
    pub fn new() -> Self {
        Self::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: usize) -> Self {
        KernelMemo {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The process-wide instance [`crate::run_parallel_md`] uses.
    pub fn global() -> &'static KernelMemo {
        static GLOBAL: OnceLock<KernelMemo> = OnceLock::new();
        GLOBAL.get_or_init(KernelMemo::new)
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            entries: inner.classic.len() + inner.tails.values().map(|g| g.len()).sum::<usize>(),
            ..inner.stats
        }
    }

    /// A handle for the ranks of one cell to share.
    pub(crate) fn cell(&self) -> CellMemo<'_> {
        CellMemo {
            memo: self,
            plans: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The kernels run outside the lock, so only a panic in the
        // bookkeeping below could poison it.
        self.inner.lock().expect("kernel memo bookkeeping panicked")
    }

    /// Returns the output stored under `key` when a cell of another
    /// `platform` than the one that computed it has asked for it (now or
    /// before); otherwise runs `kernel`, stores its output if the key is
    /// new, and returns it. The kernel runs outside the lock: two
    /// threads that miss on one key both compute (the same bits) and
    /// the first stored entry is the one later readers see.
    pub fn get_or_compute(
        &self,
        key: u128,
        platform: u64,
        kernel: impl FnOnce() -> KernelOutput,
    ) -> Arc<KernelOutput> {
        self.serve_or_compute(key, platform, kernel).0
    }

    /// [`Self::get_or_compute`], and whether the output was served from
    /// the memo rather than computed by this call.
    pub(crate) fn serve_or_compute(
        &self,
        key: u128,
        platform: u64,
        kernel: impl FnOnce() -> KernelOutput,
    ) -> (Arc<KernelOutput>, bool) {
        {
            let mut inner = self.lock();
            if let Some(entry) = inner.classic.get_mut(&key) {
                if entry.shared || entry.origin != platform {
                    entry.shared = true;
                    let hit = Arc::clone(&entry.out);
                    inner.stats.classic.hits += 1;
                    return (hit, true);
                }
            }
            inner.stats.classic.misses += 1;
        }
        let out = Arc::new(kernel());
        let bytes = out.payload_bytes();
        if bytes > self.budget {
            return (out, false);
        }
        let mut inner = self.lock();
        if let Some(first) = inner.classic.get_mut(&key) {
            // A repeat from the origin platform leaves the entry as it
            // is; a concurrent miss from another platform shares it.
            first.shared |= first.origin != platform;
            return (Arc::clone(&first.out), false);
        }
        inner.make_room(self.budget, Kind::Classic, key, bytes);
        let entry = Entry {
            out: Arc::clone(&out),
            origin: platform,
            shared: false,
        };
        inner.classic.insert(key, entry);
        (out, false)
    }

    /// Stores every rank's tail of one evaluation as one entry. Of two
    /// cells that computed one key the first to store wins; both
    /// computed the same bits.
    fn store_tails(&self, key: u128, group: Vec<TailOutput>) {
        let bytes = group_bytes(&group);
        let mut inner = self.lock();
        if bytes > self.budget || inner.tails.contains_key(&key) {
            return;
        }
        inner.make_room(self.budget, Kind::Tail, key, bytes);
        inner.tails.insert(key, group.into());
    }
}

/// The slots a storing evaluation's ranks hand their tails into.
pub(crate) type PendingTails = Mutex<Vec<Option<TailOutput>>>;

/// What every rank of one evaluation does about its PME tail.
#[derive(Clone)]
pub(crate) enum TailPlan {
    /// Every rank's tail is held: each serves its own and computes no
    /// mesh stage.
    Serve(TailGroup),
    /// Every rank computes and hands its tail in; the last one to do so
    /// stores the evaluation's tails.
    Store(Arc<PendingTails>),
    /// Every rank computes; nothing is stored.
    Compute,
}

/// One cell's handle on a [`KernelMemo`]: the memo, and the
/// [`TailPlan`] of each of the cell's evaluations by tail key.
pub(crate) struct CellMemo<'m> {
    pub memo: &'m KernelMemo,
    plans: Mutex<HashMap<u128, TailPlan>>,
}

impl CellMemo<'_> {
    /// The plan of this cell's evaluation whose tails are keyed `key`,
    /// for one of its `p` ranks. The first rank to ask draws it, looking
    /// the tails up only when its own classic partials were `served`;
    /// every later rank of the evaluation is handed that same plan. Each
    /// rank handed [`TailPlan::Serve`] counts a tail hit, each handed
    /// [`TailPlan::Store`] a miss.
    pub fn tail_plan(&self, key: u128, p: usize, served: bool) -> TailPlan {
        let plan = self
            .plans
            .lock()
            .expect("tail plan bookkeeping panicked")
            .entry(key)
            .or_insert_with(|| {
                if !served {
                    return TailPlan::Compute;
                }
                match self.memo.lock().tails.get(&key) {
                    Some(group) => TailPlan::Serve(Arc::clone(group)),
                    None => TailPlan::Store(Arc::new(Mutex::new(vec![None; p]))),
                }
            })
            .clone();
        let stats = &mut self.memo.lock().stats.tail;
        match plan {
            TailPlan::Serve(_) => stats.hits += 1,
            TailPlan::Store(_) => stats.misses += 1,
            TailPlan::Compute => {}
        }
        plan
    }

    /// Hands in `rank`'s tail under a [`TailPlan::Store`] keyed `key`;
    /// the last rank to hand in stores them all.
    pub fn hand_in(&self, key: u128, pending: &PendingTails, rank: usize, tail: TailOutput) {
        let group = {
            let mut slots = pending.lock().expect("tail hand-in panicked");
            slots[rank] = Some(tail);
            if slots.iter().any(Option::is_none) {
                return;
            }
            slots
                .iter_mut()
                .map(|slot| slot.take().expect("checked above"))
                .collect()
        };
        self.memo.store_tails(key, group);
    }
}

/// 128-bit digest over a stream of 64-bit words: two multiply-xorshift
/// lanes that both see every word. Each step is a bijection of its
/// lane for a fixed word and injective in the word for a fixed lane,
/// so two streams of equal length that differ in one word never
/// collide. A value is the state after a stream's prefix and can be
/// cloned and continued.
#[derive(Clone)]
pub(crate) struct Digest {
    a: u64,
    b: u64,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.a ^= self.a >> 32;
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.b ^= self.b >> 29;
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn range(&mut self, r: &Range<usize>) {
        self.word(r.start as u64);
        self.word(r.end as u64);
    }

    /// This state continued with what moves between two evaluations,
    /// `positions` ([`positions_digest`]).
    pub fn at(&self, positions: u128) -> Digest {
        let mut d = self.clone();
        d.word((positions >> 64) as u64);
        d.word(positions as u64);
        d
    }

    /// The lane pair as is: the map re-hashes its keys, so no final
    /// avalanche is needed.
    pub fn finish(&self) -> u128 {
        u128::from(self.a) << 64 | u128::from(self.b)
    }
}

/// What moves between two evaluations, the box and the bits of every
/// position, in 128 bits: digested once per rank and evaluation, and
/// continued into both of its content keys ([`Digest::at`]).
pub(crate) fn positions_digest(system: &System) -> u128 {
    let mut d = Digest::new();
    let l = system.pbox.lengths;
    for x in [l.x, l.y, l.z] {
        d.f64(x);
    }
    d.word(system.positions.len() as u64);
    for p in &system.positions {
        d.f64(p.x);
        d.f64(p.y);
        d.f64(p.z);
    }
    d.finish()
}

/// The part of a rank's [`classic_key`] that stands still between two
/// list builds of one decomposition: the nonbonded options, every
/// atom's class and charge (LJ parameters are compile-time constants of
/// the class), the rank's pair block with its bounds, and the rank's
/// bonded terms with their ranges, indices and parameters.
pub(crate) fn classic_prefix(
    system: &System,
    pairs: &[(u32, u32)],
    pair_block: &Range<usize>,
    part: &ClassicPartition,
    opts: &NonbondedOptions,
) -> Digest {
    let mut d = Digest::new();
    d.f64(opts.cutoff);
    d.f64(opts.switch_on);
    match opts.elec {
        ElecMethod::None => d.word(0),
        ElecMethod::Shift => d.word(1),
        ElecMethod::EwaldDirect { beta } => {
            d.word(2);
            d.f64(beta);
        }
    }
    let topo = &system.topology;
    d.word(topo.atoms.len() as u64);
    for a in &topo.atoms {
        d.word(a.class as u64);
        d.f64(a.charge);
    }
    d.range(pair_block);
    for &(i, j) in &pairs[pair_block.clone()] {
        d.word(u64::from(i) << 32 | u64::from(j));
    }
    d.range(&part.bonds);
    for t in &topo.bonds[part.bonds.clone()] {
        for i in [t.i, t.j] {
            d.word(i as u64);
        }
        d.f64(t.param.k);
        d.f64(t.param.r0);
    }
    d.range(&part.angles);
    for t in &topo.angles[part.angles.clone()] {
        for i in [t.i, t.j, t.k] {
            d.word(i as u64);
        }
        for x in [t.param.k, t.param.theta0, t.param.kub, t.param.s0] {
            d.f64(x);
        }
    }
    d.range(&part.dihedrals);
    for t in &topo.dihedrals[part.dihedrals.clone()] {
        for i in [t.i, t.j, t.k, t.l] {
            d.word(i as u64);
        }
        d.f64(t.param.k);
        d.word(u64::from(t.param.n));
        d.f64(t.param.delta);
    }
    d.range(&part.impropers);
    for t in &topo.impropers[part.impropers.clone()] {
        for i in [t.i, t.j, t.k, t.l] {
            d.word(i as u64);
        }
        d.f64(t.param.k);
        d.f64(t.param.psi0);
    }
    d
}

/// Content key of one rank's classic kernel call: the bits of
/// everything `nonbonded_energy_forces` over `pairs[pair_block]` and
/// `bonded_energy_forces_range` over `part` read — [`classic_prefix`],
/// then the box and every position ([`positions_digest`]). Exclusions
/// are not read by the kernel (they are baked into the pair list), nor
/// are velocities.
pub fn classic_key(
    system: &System,
    pairs: &[(u32, u32)],
    pair_block: &Range<usize>,
    part: &ClassicPartition,
    opts: &NonbondedOptions,
) -> u128 {
    classic_prefix(system, pairs, pair_block, part, opts)
        .at(positions_digest(system))
        .finish()
}

/// The part of an evaluation's tail key that no evaluation moves: beta,
/// the mesh and the spline order; the charge-mesh sum algorithm and the
/// rank count (they fix the order the mesh is summed in, and so the
/// bits of the potential every tail interpolates); every atom's charge
/// and exclusion list; and, per rank, `blocks[r]` — its atom block, its
/// mesh column block (its partial reciprocal energy is a sum over
/// exactly those columns) and its plane block. No word depends on
/// which rank digests it. Continued with [`Digest::at`], the key of the
/// evaluation's tails, all ranks' as one entry.
pub(crate) fn tail_prefix(
    params: &PmeParams,
    grid_sum: CombineAlgo,
    blocks: &[[Range<usize>; 3]],
    topo: &Topology,
) -> Digest {
    let mut d = Digest::new();
    d.f64(params.beta);
    for n in [params.grid.nx, params.grid.ny, params.grid.nz, params.order] {
        d.word(n as u64);
    }
    d.word(grid_sum as u64);
    d.word(blocks.len() as u64);
    for block in blocks.iter().flatten() {
        d.range(block);
    }
    d.word(topo.atoms.len() as u64);
    for (a, partners) in topo.atoms.iter().zip(&topo.exclusions) {
        d.f64(a.charge);
        d.word(partners.len() as u64);
        for &j in partners {
            d.word(u64::from(j));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{balanced_pair_cuts, block_range, classic_partition, PmeDecomp};
    use crate::driver::{run_parallel_md_memo, MdConfig};
    use cpc_cluster::{ClusterConfig, NetworkKind};
    use cpc_fft::Dims3;
    use cpc_md::builder::water_box;
    use cpc_md::neighbor::NeighborList;
    use cpc_md::pme::PmeParams;
    use cpc_md::EnergyModel;
    use cpc_mpi::Middleware;
    use std::sync::Barrier;

    fn seeded_system(seed: u64) -> System {
        let mut sys = water_box(2, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 10);
        sys.assign_velocities(120.0 + seed as f64, seed);
        sys
    }

    fn output(n_atoms: usize, tag: f64) -> KernelOutput {
        KernelOutput {
            forces: vec![Vec3::new(tag, -tag, 0.5 * tag); n_atoms],
            bonded: BondedEnergies::default(),
            nonbonded: NonbondedEnergies::default(),
            pairs_evaluated: n_atoms,
            bonded_terms: 0,
        }
    }

    /// Two platform cells of one decomposition, each computed (`None`)
    /// and run through one memo in the order A, A, B, B, A: every run
    /// yields the byte-identical report of its cell; A's repeat computes
    /// (no other platform has asked yet), B replays A's kernels, and
    /// from then on every run replays, A's included. Under PME, B's
    /// first run — the first whose partials are served — computes and
    /// stores the tails, and the two runs after it are served them.
    #[test]
    fn cold_warm_and_unmemoised_reports_are_byte_identical() {
        let networks = [
            NetworkKind::TcpGigE,
            NetworkKind::ScoreGigE,
            NetworkKind::MyrinetGm,
        ];
        let pme = EnergyModel::Pme(PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta: 0.34,
        });
        let steps = 2;
        for seed in 0..56u64 {
            let sys = seeded_system(seed);
            let p = [1usize, 2, 4, 8][(seed % 4) as usize];
            let model = if seed % 3 == 0 {
                EnergyModel::Classic
            } else {
                pme
            };
            // Two platform cells per system (the network always
            // differs), rotating through the whole network x middleware
            // x node space across seeds.
            let cell = |cell: u64| {
                let k = (seed + 5 * cell) as usize;
                let network = networks[k % 3];
                let middleware = Middleware::ALL[(k / 3) % 2];
                let cluster = if (k / 6) % 2 == 1 {
                    ClusterConfig::dual(p, network)
                } else {
                    ClusterConfig::uni(p, network)
                };
                MdConfig {
                    steps,
                    ..MdConfig::paper_protocol(model, middleware, cluster)
                }
            };
            let cells = [cell(0), cell(1)];
            let plain = cells
                .each_ref()
                .map(|cfg| format!("{:?}", run_parallel_md_memo(&sys, cfg, None)));

            let memo = KernelMemo::new();
            let lookups = (p * (steps + 1)) as u64;
            let tails = if model == pme { lookups } else { 0 };
            // (cell, classic misses, classic hits, tail misses, tail
            // hits) of each run in turn.
            let runs = [
                (0, lookups, 0, 0, 0),
                (0, lookups, 0, 0, 0),
                (1, 0, lookups, tails, 0),
                (1, 0, lookups, 0, tails),
                (0, 0, lookups, 0, tails),
            ];
            for (run, (which, misses, hits, tail_misses, tail_hits)) in runs.into_iter().enumerate()
            {
                let before = memo.stats();
                let got = format!(
                    "{:?}",
                    run_parallel_md_memo(&sys, &cells[which], Some(&memo))
                );
                let after = memo.stats();
                let at = format!("seed {seed} run {run}");
                assert_eq!(got, plain[which], "{at}");
                assert_eq!(after.classic.misses - before.classic.misses, misses, "{at}");
                assert_eq!(after.classic.hits - before.classic.hits, hits, "{at}");
                assert_eq!(after.tail.misses - before.tail.misses, tail_misses, "{at}");
                assert_eq!(after.tail.hits - before.tail.hits, tail_hits, "{at}");
            }
            let held = memo.stats();
            assert_eq!(held.entries as u64, lookups + tails, "seed {seed}");
            assert_eq!(held.tail.bytes == 0, tails == 0, "seed {seed}");
        }
    }

    /// Drops every `stride`-th classic entry, oldest first.
    fn forget_classic(memo: &KernelMemo, stride: usize) {
        let mut inner = memo.lock();
        let is_classic = |kind: &Kind| matches!(kind, Kind::Classic);
        let dropped: Vec<u128> = (inner.order)
            .iter()
            .filter(|(kind, _)| is_classic(kind))
            .map(|&(_, key)| key)
            .step_by(stride)
            .collect();
        for key in &dropped {
            let entry = inner.classic.remove(key).expect("ordered keys are stored");
            inner.stats.classic.bytes -= entry.out.payload_bytes();
        }
        (inner.order).retain(|(kind, key)| !(is_classic(kind) && dropped.contains(key)));
    }

    /// One rank of every evaluation lost its classic entry, so it
    /// computes its partials while its peers are served theirs. Each
    /// evaluation still draws one tail plan — every rank serves, or
    /// every rank computes — and the report keeps every bit. (Were the
    /// plan a rank's own, the computing rank would sum its peers' zeros
    /// into its charge mesh.)
    #[test]
    fn an_evaluation_whose_ranks_disagree_about_their_partials_keeps_every_bit() {
        let sys = seeded_system(3);
        let model = EnergyModel::Pme(PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta: 0.34,
        });
        let (p, steps) = (4, 2);
        let cell = |network| MdConfig {
            steps,
            ..MdConfig::paper_protocol(model, Middleware::Mpi, ClusterConfig::uni(p, network))
        };
        let (a, b) = (cell(NetworkKind::TcpGigE), cell(NetworkKind::MyrinetGm));
        for middle in [&a, &b] {
            let plain = format!("{:?}", run_parallel_md_memo(&sys, middle, None));
            let memo = KernelMemo::new();
            // A computes, B stores the tails.
            run_parallel_md_memo(&sys, &a, Some(&memo));
            run_parallel_md_memo(&sys, &b, Some(&memo));
            let evaluations = steps + 1;
            assert_eq!(memo.stats().entries, 2 * p * evaluations);
            // The classic entries are held in evaluation order, all p of
            // one evaluation before any of the next.
            forget_classic(&memo, p);
            let before = memo.stats();
            assert_eq!(before.entries, (2 * p - 1) * evaluations);
            let got = format!("{:?}", run_parallel_md_memo(&sys, middle, Some(&memo)));
            assert_eq!(got, plain, "{:?}", middle.cluster.network);
            let after = memo.stats();
            let (hits, misses) = (
                after.tail.hits - before.tail.hits,
                after.tail.misses - before.tail.misses,
            );
            assert_eq!((hits % p as u64, misses), (0, 0), "all ranks or none");
            assert_eq!(
                after.classic.misses - before.classic.misses,
                evaluations as u64
            );
        }
    }

    /// An evaluation's plan is drawn once, by the first of its ranks to
    /// ask. Tails another cell stores after that do not make its later
    /// ranks serve, and a rank that computed its own partials is handed
    /// the plan its peer drew.
    #[test]
    fn every_rank_of_an_evaluation_is_handed_the_plan_its_first_rank_drew() {
        let memo = KernelMemo::new();
        let tail =
            |tag: f64| TailOutput::extract(&[Vec3::new(tag, 0.0, 0.0)], &(0..1), tag, tag, 1, 0);
        let (key, p) = (7, 2);
        let slow = memo.cell();
        let TailPlan::Store(slow_slots) = slow.tail_plan(key, p, true) else {
            panic!("nothing is held yet");
        };
        // Another cell runs the whole evaluation meanwhile; its tails are
        // held once the last of them is handed in.
        let fast = memo.cell();
        let TailPlan::Store(fast_slots) = fast.tail_plan(key, p, true) else {
            panic!("nothing is held yet");
        };
        assert!(matches!(fast.tail_plan(key, p, true), TailPlan::Store(_)));
        fast.hand_in(key, &fast_slots, 1, tail(1.0));
        assert_eq!(memo.stats().entries, 0, "held only when complete");
        fast.hand_in(key, &fast_slots, 0, tail(0.0));
        assert_eq!(memo.stats().entries, p);
        // The slow cell's second rank computes, as its first one does.
        assert!(matches!(slow.tail_plan(key, p, true), TailPlan::Store(_)));
        slow.hand_in(key, &slow_slots, 0, tail(0.0));
        slow.hand_in(key, &slow_slots, 1, tail(1.0));
        assert_eq!(memo.stats().entries, p, "the first store wins");
        // A served first rank draws the held tails for both ...
        let next = memo.cell();
        let TailPlan::Serve(group) = next.tail_plan(key, p, true) else {
            panic!("the tails are held");
        };
        assert_eq!(group[1].excl_energy, 1.0);
        assert!(matches!(next.tail_plan(key, p, false), TailPlan::Serve(_)));
        // ... and a first rank that computed its partials, nothing.
        let other = memo.cell();
        assert!(matches!(other.tail_plan(key, p, false), TailPlan::Compute));
        assert!(matches!(other.tail_plan(key, p, true), TailPlan::Compute));
        let s = memo.stats();
        assert_eq!((s.tail.misses, s.tail.hits), (2 * p as u64, p as u64));
    }

    #[test]
    fn the_key_separates_every_input_the_kernel_reads() {
        let sys = seeded_system(1);
        let opts = NonbondedOptions::pme_direct(0.34);
        let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, 10.0, 2.0);
        let p = 4;
        let t = &sys.topology;
        let part = |r| {
            classic_partition(
                list.pairs.len(),
                t.bonds.len(),
                t.angles.len(),
                t.dihedrals.len(),
                t.impropers.len(),
                t.n_atoms(),
                p,
                r,
            )
        };
        let cuts = balanced_pair_cuts(&list.pairs, p);
        let block = cuts[1]..cuts[2];
        let base = classic_key(&sys, &list.pairs, &block, &part(1), &opts);
        assert_eq!(
            base,
            classic_key(&sys.clone(), &list.pairs.clone(), &block, &part(1), &opts),
            "the key is a function of content, not of addresses"
        );

        let mut keys = vec![base];
        // One position bit.
        let mut moved = sys.clone();
        moved.positions[7].y = f64::from_bits(moved.positions[7].y.to_bits() ^ 1);
        keys.push(classic_key(&moved, &list.pairs, &block, &part(1), &opts));
        // One pair of the block.
        let mut pairs = list.pairs.clone();
        pairs[block.start + 3].1 ^= 1;
        keys.push(classic_key(&sys, &pairs, &block, &part(1), &opts));
        // The block bounds, at either end.
        let shorter = block.start..block.end - 1;
        keys.push(classic_key(&sys, &list.pairs, &shorter, &part(1), &opts));
        let later = block.start + 1..block.end;
        keys.push(classic_key(&sys, &list.pairs, &later, &part(1), &opts));
        // The bonded ranges.
        keys.push(classic_key(&sys, &list.pairs, &block, &part(2), &opts));
        // beta, and the electrostatics method.
        let beta = NonbondedOptions::pme_direct(0.34 + f64::EPSILON);
        keys.push(classic_key(&sys, &list.pairs, &block, &part(1), &beta));
        let shift = NonbondedOptions::classic();
        keys.push(classic_key(&sys, &list.pairs, &block, &part(1), &shift));
        // One atom charge, one bonded parameter, the box.
        let mut charged = sys.clone();
        charged.topology.atoms[0].charge += 1e-12;
        keys.push(classic_key(&charged, &list.pairs, &block, &part(1), &opts));
        let mut stiffer = sys.clone();
        stiffer.topology.bonds[part(1).bonds.start].param.k += 1e-9;
        keys.push(classic_key(&stiffer, &list.pairs, &block, &part(1), &opts));
        let mut wider = sys.clone();
        wider.pbox.lengths.z += 1e-9;
        keys.push(classic_key(&wider, &list.pairs, &block, &part(1), &opts));

        // The tails' key: what no evaluation moves, for every rank at
        // once, then the box and every position.
        let params = PmeParams {
            grid: Dims3::new(16, 18, 20),
            order: 4,
            beta: 0.34,
        };
        // Plane slabs reweighted, so the plane blocks are not the ones
        // the rank count alone would give.
        let decomp = PmeDecomp::new(16, 18, 20, p).with_plane_weights(&[1.0, 0.4, 2.0, 1.0]);
        assert_ne!(decomp.planes(1), PmeDecomp::new(16, 18, 20, p).planes(1));
        let blocks = |decomp: &PmeDecomp| -> Vec<[Range<usize>; 3]> {
            let (n, p) = (t.n_atoms(), decomp.p);
            (0..p)
                .map(|r| [block_range(n, p, r), decomp.cols(r), decomp.planes(r)])
                .collect()
        };
        #[derive(Clone)]
        struct Statics<'a> {
            params: PmeParams,
            algo: CombineAlgo,
            blocks: Vec<[Range<usize>; 3]>,
            topo: &'a Topology,
        }
        let base = Statics {
            params,
            algo: CombineAlgo::Ring,
            blocks: blocks(&decomp),
            topo: t,
        };
        let prefix = |s: &Statics| tail_prefix(&s.params, s.algo, &s.blocks, s.topo);
        let tail = |s: Statics| prefix(&s).at(positions_digest(&sys)).finish();
        keys.push(tail(base.clone()));
        // One position bit, the box, one charge.
        keys.push(prefix(&base).at(positions_digest(&moved)).finish());
        keys.push(prefix(&base).at(positions_digest(&wider)).finish());
        keys.push(tail(Statics {
            topo: &charged.topology,
            ..base.clone()
        }));
        // One exclusion: dropped, and renamed.
        let mut unbonded = t.clone();
        let excluded = (0..t.n_atoms()).find(|&i| !t.exclusions[i].is_empty());
        let excluded = excluded.expect("water has 1-2 exclusions");
        unbonded.exclusions[excluded].pop();
        keys.push(tail(Statics {
            topo: &unbonded,
            ..base.clone()
        }));
        let mut renamed = t.clone();
        renamed.exclusions[excluded][0] += 1;
        keys.push(tail(Statics {
            topo: &renamed,
            ..base.clone()
        }));
        // beta, each mesh dimension, the order.
        let mut other = base.clone();
        other.params.beta += f64::EPSILON;
        keys.push(tail(other));
        for bump in [
            |g: &mut Dims3| g.nx += 2,
            |g: &mut Dims3| g.ny += 2,
            |g: &mut Dims3| g.nz += 2,
        ] {
            let mut other = base.clone();
            bump(&mut other.params.grid);
            keys.push(tail(other));
        }
        let mut other = base.clone();
        other.params.order = 6;
        keys.push(tail(other));
        // The order the charge mesh is summed in: the algorithm, and one
        // more rank.
        keys.push(tail(Statics {
            algo: CombineAlgo::Tree,
            ..base.clone()
        }));
        keys.push(tail(Statics {
            blocks: blocks(&PmeDecomp::new(16, 18, 20, p + 1)),
            ..base.clone()
        }));
        // Each bound of every rank's atom block, column block and plane
        // block.
        for r in 0..p {
            for which in 0..3 {
                let b = base.blocks[r][which].clone();
                for moved in [b.start + 1..b.end, b.start..b.end - 1] {
                    let mut other = base.clone();
                    other.blocks[r][which] = moved;
                    keys.push(tail(other));
                }
            }
        }

        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "colliding keys in {keys:x?}");
    }

    #[test]
    fn the_budget_is_never_exceeded_and_eviction_is_oldest_first() {
        let n_atoms = 100;
        let one = output(n_atoms, 0.0).payload_bytes();
        let memo = KernelMemo::with_budget(3 * one + one / 2);
        for key in 0..10u128 {
            memo.get_or_compute(key, 0, || output(n_atoms, key as f64));
            let s = memo.stats();
            assert!(s.bytes() <= 3 * one + one / 2, "over budget: {s:?}");
            assert_eq!(s.entries, (key as usize + 1).min(3));
            assert_eq!(s.bytes(), s.entries * one);
            assert_eq!(s.evictions, (key as u64 + 1).saturating_sub(3));
        }
        // Keys 7, 8, 9 survive; 6 was the last one evicted.
        let before = memo.stats();
        for key in 7..10u128 {
            let hit = memo.get_or_compute(key, 1, || unreachable!("key {key} is held"));
            assert_eq!(hit.forces[0].x, key as f64);
        }
        assert_eq!(memo.stats().classic.hits, before.classic.hits + 3);
        memo.get_or_compute(6, 0, || output(n_atoms, 6.0));
        let s = memo.stats();
        assert_eq!(
            (s.classic.misses, s.evictions),
            (before.classic.misses + 1, before.evictions + 1)
        );
        // ... which pushed out 7, the oldest of the three.
        memo.get_or_compute(8, 1, || unreachable!("8 is still held"));
        memo.get_or_compute(7, 0, || output(n_atoms, 7.0));
        assert_eq!(memo.stats().classic.misses, before.classic.misses + 2);

        // An output larger than the whole budget is returned, not held.
        let big = memo.get_or_compute(99, 0, || output(10 * n_atoms, 1.0));
        assert_eq!(big.forces.len(), 10 * n_atoms);
        let s = memo.stats();
        assert!(s.bytes() <= 3 * one + one / 2 && s.entries == 3, "{s:?}");

        // Tails draw on the same budget and the same queue, the tails of
        // an evaluation as one entry: half a classic output's worth of
        // them fits beside the three, and the group that does not fit
        // pushes out the oldest entry, of whichever kind.
        let tail =
            |tag: f64| TailOutput::extract(&output(16, tag).forces, &(0..16), -tag, tag, 8, 0);
        let small = tail(0.0).payload_bytes();
        assert!(2 * small <= one / 2 && one / 2 < 3 * small);
        let held = memo.stats();
        memo.store_tails(0, vec![tail(0.0)]);
        memo.store_tails(1, vec![tail(1.0), tail(-1.0)]);
        let s = memo.stats();
        assert_eq!(
            (s.tail.bytes, s.classic.bytes, s.entries),
            (3 * small, 2 * one, 5)
        );
        assert_eq!(s.evictions, held.evictions + 1);
        let group = |key| memo.lock().tails.get(&key).map(Arc::clone);
        assert_eq!(group(1).expect("held")[1].excl_energy, -1.0);
        // A classic output now evicts its way through the other two
        // classic entries and the oldest group ...
        memo.get_or_compute(50, 0, || output(n_atoms, 50.0));
        memo.get_or_compute(51, 0, || output(n_atoms, 51.0));
        memo.get_or_compute(52, 0, || output(n_atoms, 52.0));
        let s = memo.stats();
        assert!(s.bytes() <= 3 * one + one / 2, "over budget: {s:?}");
        assert_eq!(
            (s.classic.bytes, s.tail.bytes, s.entries),
            (3 * one, 2 * small, 5)
        );
        assert!(group(0).is_none() && group(1).is_some());
        // ... and the next one through both tails of the other at once.
        let before = memo.stats().evictions;
        memo.get_or_compute(53, 0, || output(n_atoms, 53.0));
        let s = memo.stats();
        assert_eq!((s.tail.bytes, s.entries, s.evictions), (0, 3, before + 3));
        assert!(group(1).is_none());
    }

    /// A tail is stored sparse and served dense: the block, the touched
    /// atoms outside it (a `-0.0` is touched) and nothing else.
    #[test]
    fn a_stored_tail_restores_every_bit_of_the_partial_force_array() {
        let mut forces = vec![Vec3::ZERO; 40];
        for (i, f) in forces.iter_mut().enumerate().take(20).skip(10) {
            *f = Vec3::new(i as f64, -0.0, 1e-300 * i as f64);
        }
        forces[12] = Vec3::ZERO;
        forces[3] = Vec3::new(0.0, -0.0, 0.0);
        forces[20] = Vec3::new(0.0, 0.0, -7.5);
        forces[39] = Vec3::new(f64::MIN_POSITIVE, 0.0, 0.0);
        let tail = TailOutput::extract(&forces, &(10..20), 3.5, -1.25, 640, 9);
        assert_eq!(tail.block_forces.len(), 10);
        let outside: Vec<u32> = tail.partners.iter().map(|&(i, _)| i).collect();
        assert_eq!(outside, [3, 20, 39]);
        let mut restored = vec![Vec3::ZERO; 40];
        tail.scatter_into(&mut restored, 10);
        let bits = |fs: &[Vec3]| -> Vec<[u64; 3]> {
            fs.iter()
                .map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()])
                .collect()
        };
        assert_eq!(bits(&restored), bits(&forces));
        assert_eq!(
            tail.payload_bytes(),
            std::mem::size_of::<TailOutput>() + 10 * 24 + 3 * 32
        );
    }

    /// `JobService::run_pooled` and `serve --threads N` run cells of one
    /// decomposition (and two platforms) on several threads at once. The
    /// barrier inside the kernel holds both threads in the miss path
    /// until both have missed.
    #[test]
    fn two_threads_missing_on_one_key_return_identical_bits() {
        let memo = KernelMemo::new();
        let both_missed = Barrier::new(2);
        let kernel = || {
            both_missed.wait();
            output(64, 3.25)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| memo.get_or_compute(42, 0, kernel));
            let b = s.spawn(|| memo.get_or_compute(42, 1, kernel));
            (
                a.join().expect("the first lookup returns"),
                b.join().expect("the second lookup returns"),
            )
        });
        assert_eq!(*a, *b);
        let s = memo.stats();
        assert_eq!((s.classic.hits, s.classic.misses, s.entries), (0, 2, 1));
        assert_eq!(s.bytes(), a.payload_bytes());
        // Whichever stored first, the other platform's miss shared it.
        for platform in [0, 1] {
            let held = memo.get_or_compute(42, platform, || unreachable!("the key is held"));
            assert!(Arc::ptr_eq(&held, &a) || Arc::ptr_eq(&held, &b));
        }
    }

    /// Running one cell again is a repeat measurement, not a replay: the
    /// platform that computed an entry computes again until another
    /// platform has asked for it.
    #[test]
    fn a_repeat_from_the_only_platform_that_asked_computes() {
        let memo = KernelMemo::new();
        let counts = |memo: &KernelMemo| {
            let s = memo.stats();
            (s.classic.hits, s.classic.misses, s.entries)
        };
        for repeat in 1..=3 {
            let out = memo.get_or_compute(7, 0xa, || output(8, 1.5));
            assert_eq!(out.forces[0].x, 1.5);
            assert_eq!(counts(&memo), (0, repeat, 1));
        }
        memo.get_or_compute(7, 0xb, || unreachable!("another platform replays"));
        memo.get_or_compute(7, 0xb, || unreachable!("and keeps replaying"));
        memo.get_or_compute(7, 0xa, || unreachable!("the entry is shared now"));
        assert_eq!(counts(&memo), (3, 3, 1));
    }
}
