//! A content-addressed memo of per-rank classic-kernel outputs.
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
//! identical partials to the live combine. Nothing downstream of the
//! kernel is stored or skipped.
//!
//! Sharing is *across* platform cells only. Every entry remembers the
//! platform of the cell that computed it, and a lookup from that same
//! platform computes again until some other platform has asked for the
//! entry: running one cell twice is a repeat measurement (a timing
//! loop, a determinism check) and must cost, and test, what the first
//! run did. Were it a replay, the cost of a cell would depend on what
//! the process happened to run before it.
//!
//! The payload budget is a fixed constant with oldest-first eviction;
//! there is no switch: callers that must measure or perturb the kernel
//! (benches, the fault-tolerant driver) simply pass no memo.

use crate::decomp::ClassicPartition;
use cpc_md::bonded::BondedEnergies;
use cpc_md::nonbonded::{ElecMethod, NonbondedEnergies, NonbondedOptions};
use cpc_md::{System, Vec3};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Payload budget of a memo: 32 MiB holds the four paper trajectories
/// (p = 1, 2, 4, 8 on myoglobin, about 14 MiB) twice over.
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

/// Counters of a [`KernelMemo`], as printed by `campaign` and `serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the kernel.
    pub misses: u64,
    /// Entries dropped to stay inside the budget.
    pub evictions: u64,
    /// Payload bytes currently held.
    pub bytes: usize,
    /// Entries currently held.
    pub entries: usize,
}

impl fmt::Display for MemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel memo: {} hit(s), {} miss(es), {} eviction(s), {} entries, {:.1} MiB",
            self.hits,
            self.misses,
            self.evictions,
            self.entries,
            self.bytes as f64 / (1u64 << 20) as f64
        )
    }
}

/// A stored output and who may be served it.
struct Entry {
    out: Arc<KernelOutput>,
    /// Platform of the cell that computed the output.
    origin: u64,
    /// Whether a cell of another platform has asked for it since.
    shared: bool,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u128, Entry>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<u128>,
    /// `entries` is left at zero here and read off `map` on request.
    stats: MemoStats,
}

/// Thread-safe, byte-budgeted store of [`KernelOutput`]s by content key.
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
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The kernel runs outside the lock, so only a panic in the
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
        {
            let mut inner = self.lock();
            if let Some(entry) = inner.map.get_mut(&key) {
                if entry.shared || entry.origin != platform {
                    entry.shared = true;
                    let hit = Arc::clone(&entry.out);
                    inner.stats.hits += 1;
                    return hit;
                }
            }
            inner.stats.misses += 1;
        }
        let out = Arc::new(kernel());
        let bytes = out.payload_bytes();
        if bytes > self.budget {
            return out;
        }
        let mut inner = self.lock();
        if let Some(first) = inner.map.get_mut(&key) {
            // A repeat from the origin platform leaves the entry as it
            // is; a concurrent miss from another platform shares it.
            first.shared |= first.origin != platform;
            return Arc::clone(&first.out);
        }
        while inner.stats.bytes + bytes > self.budget {
            let oldest = inner.order.pop_front().expect("bytes held imply an entry");
            let gone = inner.map.remove(&oldest).expect("ordered keys are stored");
            inner.stats.bytes -= gone.out.payload_bytes();
            inner.stats.evictions += 1;
        }
        let entry = Entry {
            out: Arc::clone(&out),
            origin: platform,
            shared: false,
        };
        inner.map.insert(key, entry);
        inner.order.push_back(key);
        inner.stats.bytes += bytes;
        out
    }
}

/// 128-bit digest over a stream of 64-bit words: two multiply-xorshift
/// lanes that both see every word. Each step is a bijection of its
/// lane for a fixed word and injective in the word for a fixed lane,
/// so two streams of equal length that differ in one word never
/// collide.
struct Digest {
    a: u64,
    b: u64,
}

impl Digest {
    fn new() -> Self {
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

    /// The lane pair as is: the map re-hashes its keys, so no final
    /// avalanche is needed.
    fn finish(self) -> u128 {
        u128::from(self.a) << 64 | u128::from(self.b)
    }
}

/// Content key of one rank's classic kernel call: the bits of
/// everything `nonbonded_energy_forces` over `pairs[pair_block]` and
/// `bonded_energy_forces_range` over `part` read — the nonbonded
/// options, the box, every position, every atom's class and charge
/// (LJ parameters are compile-time constants of the class), the rank's
/// pair block with its bounds, and the rank's bonded terms with their
/// ranges, indices and parameters. Exclusions are not read by the
/// kernel (they are baked into the pair list), nor are velocities.
pub fn classic_key(
    system: &System,
    pairs: &[(u32, u32)],
    pair_block: &Range<usize>,
    part: &ClassicPartition,
    opts: &NonbondedOptions,
) -> u128 {
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
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{balanced_pair_cuts, classic_partition};
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
    /// from then on every run replays, A's included.
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
            // (cell, misses, hits) of each run in turn.
            let runs = [
                (0, lookups, 0),
                (0, lookups, 0),
                (1, 0, lookups),
                (1, 0, lookups),
                (0, 0, lookups),
            ];
            for (run, (which, misses, hits)) in runs.into_iter().enumerate() {
                let before = memo.stats();
                let got = format!(
                    "{:?}",
                    run_parallel_md_memo(&sys, &cells[which], Some(&memo))
                );
                let after = memo.stats();
                assert_eq!(got, plain[which], "seed {seed} run {run}");
                assert_eq!(
                    after.misses - before.misses,
                    misses,
                    "seed {seed} run {run}"
                );
                assert_eq!(after.hits - before.hits, hits, "seed {seed} run {run}");
            }
            assert_eq!(memo.stats().entries as u64, lookups, "seed {seed}");
        }
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
            assert!(s.bytes <= 3 * one + one / 2, "over budget: {s:?}");
            assert_eq!(s.entries, (key as usize + 1).min(3));
            assert_eq!(s.bytes, s.entries * one);
            assert_eq!(s.evictions, (key as u64 + 1).saturating_sub(3));
        }
        // Keys 7, 8, 9 survive; 6 was the last one evicted.
        let before = memo.stats();
        for key in 7..10u128 {
            let hit = memo.get_or_compute(key, 1, || unreachable!("key {key} is held"));
            assert_eq!(hit.forces[0].x, key as f64);
        }
        assert_eq!(memo.stats().hits, before.hits + 3);
        memo.get_or_compute(6, 0, || output(n_atoms, 6.0));
        let s = memo.stats();
        assert_eq!(
            (s.misses, s.evictions),
            (before.misses + 1, before.evictions + 1)
        );
        // ... which pushed out 7, the oldest of the three.
        memo.get_or_compute(8, 1, || unreachable!("8 is still held"));
        memo.get_or_compute(7, 0, || output(n_atoms, 7.0));
        assert_eq!(memo.stats().misses, before.misses + 2);

        // An output larger than the whole budget is returned, not held.
        let big = memo.get_or_compute(99, 0, || output(10 * n_atoms, 1.0));
        assert_eq!(big.forces.len(), 10 * n_atoms);
        let s = memo.stats();
        assert!(s.bytes <= 3 * one + one / 2 && s.entries == 3, "{s:?}");
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
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
        assert_eq!(s.bytes, a.payload_bytes());
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
            (s.hits, s.misses, s.entries)
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
