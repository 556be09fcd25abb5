//! Record once, replay per platform.
//!
//! The paper's factorial varies *platform* factors — network, CPUs per
//! node — at each processor count, and neither moves a bit of the
//! trajectory. Nor do they move an operation a rank issues to the
//! engine: a send is costed from the seed, the ranks and a per-pair
//! counter, the network model holds no shared link state, a receive
//! names its source and tag, and no fault-free rank body reads its
//! clock. So a cell's whole timing outcome is a function of each rank's
//! [`Script`] — its phase switches, its compute charges in calibration
//! seconds, its sends by length and shape, its receives by source and
//! tag — and of the platform that costs them.
//!
//! [`ScriptStore`] keeps one recording per *physics identity*: the
//! system, and the [`MdConfig`] less the network, the CPUs per node,
//! the jitter seed and tracing. Middleware is in it, because CMPI sends
//! another message sequence than MPI. A cell finds its identity by the
//! printed config and confirms it by comparing its system bit for bit
//! with the snapshot the identity's slot holds: no digest, so no
//! collision. The first cell of an identity
//! runs live, records its ranks' scripts, links them once into a
//! [`Schedule`] (the scripts are dropped) and keeps rank 0's physics
//! (energy log, final positions and velocities). A later cell of the
//! identity on another platform replays the schedule in one pass on one
//! thread through the engine's own accounting ([`Schedule::replay`]) and
//! takes the stored physics: no force, no message payload, no rank
//! thread, no mailbox.
//!
//! Sharing is *across* platforms only. A recording remembers the
//! platform that made it, and a cell on that platform runs live again
//! until a cell of another platform has replayed the recording: running
//! one cell twice is a repeat measurement (a timing loop, a determinism
//! check) and must cost what the first run did.
//!
//! Each identity's slot fills once: cells that arrive while it is being
//! recorded wait for that recording instead of each computing it. The
//! store holds a fixed byte budget with oldest-first eviction; there is
//! no switch. Callers that perturb a run out of band (faults, SDC, ABFT)
//! go through the fault-tolerant driver, which never looks here.

use crate::driver::{run_live, run_recorded, MdConfig};
use crate::report::{RankPayload, RunReport};
use cpc_cluster::{NetworkKind, Schedule, Script};
use cpc_md::forcefield::{AngleParam, BondParam, DihedralParam, ImproperParam};
use cpc_md::pbc::PbcBox;
use cpc_md::topology::{Angle, Atom, Bond, Dihedral, Improper, Topology};
use cpc_md::{System, Vec3};
use cpc_mpi::Middleware;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Byte budget of a store: the full campaign's seven identities (p = 2,
/// 4, 8 under both middlewares, and p = 1) and their one system
/// snapshot hold 2.5 MiB, booked by allocated capacity.
const BUDGET_BYTES: usize = 16 << 20;

/// The factors a recording is replayed across: network, CPUs per node
/// and the jitter seed.
type Platform = (NetworkKind, usize, u64);

fn platform_of(cfg: &MdConfig) -> Platform {
    let c = &cfg.cluster;
    (c.network, c.cpus_per_node, c.seed)
}

/// What the live cell of an identity left for every later one.
struct Recording {
    schedule: Schedule,
    physics: RankPayload,
    /// The platform of the cell that recorded.
    origin: Platform,
}

impl Recording {
    /// The recording of a live cell: its ranks' scripts linked, its
    /// physics.
    fn new(scripts: &[Script], physics: RankPayload, origin: Platform) -> Self {
        Recording {
            schedule: cpc_cluster::link(scripts).expect("a recorded cell links to its end"),
            physics,
            origin,
        }
    }

    /// Bytes held: what the schedule and the physics vectors allocated.
    fn bytes(&self) -> usize {
        fn held<T>(xs: &Vec<T>) -> usize {
            xs.capacity() * std::mem::size_of::<T>()
        }
        let (energies, positions, velocities) = &self.physics;
        std::mem::size_of::<Self>()
            + self.schedule.bytes()
            + held(energies)
            + held(positions)
            + held(velocities)
    }

    /// The report of `cfg`'s cell: the schedule replayed on its
    /// platform, the recorded physics.
    fn replay(&self, cfg: &MdConfig) -> RunReport {
        let outcomes = self.schedule.replay(cfg.cluster);
        let outcomes = outcomes.expect("a linked cell replays on a platform of its rank count");
        RunReport::from_outcomes(cfg, outcomes, self.physics.clone())
    }
}

/// One identity's place in the store.
struct Slot {
    /// The identity's system: one snapshot per distinct system, shared
    /// by every slot of that system.
    system: Arc<System>,
    recording: OnceLock<Recording>,
    /// Whether a cell of another platform than the recording one has
    /// replayed it.
    shared: AtomicBool,
}

/// Counters of a [`ScriptStore`], as `campaign` and `serve` print them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Cells that ran live and recorded their identity.
    pub recorded: u64,
    /// Cells replayed from a recording.
    pub replayed: u64,
    /// Cells on their recording's own platform, run live again.
    pub live_repeats: u64,
    /// Bytes held: the recordings, and once each the systems they are
    /// of.
    pub bytes: usize,
    /// Recordings dropped to stay inside the budget.
    pub evictions: u64,
}

impl fmt::Display for ReplayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay: {} recorded, {} replayed, {} live repeat(s), {:.1} MiB, {} eviction(s)",
            self.recorded,
            self.replayed,
            self.live_repeats,
            self.bytes as f64 / (1u64 << 20) as f64,
            self.evictions
        )
    }
}

/// One identity in the store: its config key, its slot, and the bytes
/// it books (zero until its recording is admitted).
struct Held {
    key: String,
    slot: Arc<Slot>,
    booked: usize,
}

#[derive(Default)]
struct Inner {
    /// Every identity held, oldest first.
    held: Vec<Held>,
    stats: ReplayStats,
}

impl Inner {
    /// The slot of `system` under `key`, if there is one.
    fn find(&self, key: &str, system: &System) -> Option<Arc<Slot>> {
        let mut held = self.held.iter();
        let found = held.find(|h| h.key == key && same_system(&h.slot.system, system))?;
        Some(Arc::clone(&found.slot))
    }

    /// The snapshot of `system` a slot already holds, or a new one.
    fn snapshot(&self, system: &System) -> Arc<System> {
        let mut held = self.held.iter().map(|h| &h.slot.system);
        match held.find(|held| same_system(held, system)) {
            Some(held) => Arc::clone(held),
            None => Arc::new(system.clone()),
        }
    }

    /// Bytes held: every admitted recording, and once each the
    /// systems they are of.
    fn held_bytes(&self) -> usize {
        let mut systems: Vec<&Arc<System>> = Vec::new();
        let mut bytes = 0;
        for h in self.held.iter().filter(|h| h.booked > 0) {
            bytes += h.booked;
            if !systems.iter().any(|s| Arc::ptr_eq(s, &h.slot.system)) {
                systems.push(&h.slot.system);
                bytes += system_bytes(&h.slot.system);
            }
        }
        bytes
    }
}

/// Process-wide, byte-budgeted store of recorded cells by physics
/// identity.
pub struct ScriptStore {
    budget: usize,
    inner: Mutex<Inner>,
}

impl ScriptStore {
    fn with_budget(budget: usize) -> Self {
        ScriptStore {
            budget,
            inner: Mutex::default(),
        }
    }

    /// The process-wide instance [`crate::run_parallel_md`] uses.
    pub fn global() -> &'static ScriptStore {
        static GLOBAL: OnceLock<ScriptStore> = OnceLock::new();
        GLOBAL.get_or_init(|| ScriptStore::with_budget(BUDGET_BYTES))
    }

    /// Current counters.
    pub fn stats(&self) -> ReplayStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Cells run outside the lock, so only a panic in the
        // bookkeeping below could poison it.
        self.inner
            .lock()
            .expect("script store bookkeeping panicked")
    }

    /// The report of `cfg`'s cell: recorded live if its identity is new,
    /// run live again on the recording's own platform until another
    /// platform has replayed it, replayed otherwise.
    pub(crate) fn run(&self, system: &System, cfg: &MdConfig) -> RunReport {
        let slot = self.slot(config_key(cfg), system);
        let mut live = None;
        let recording = slot.recording.get_or_init(|| {
            let (report, scripts) = run_recorded(system, cfg);
            let physics = (
                report.step_energies.clone(),
                report.final_positions.clone(),
                report.final_velocities.clone(),
            );
            live = Some(report);
            Recording::new(&scripts, physics, platform_of(cfg))
        });
        if let Some(report) = live {
            self.admit(&slot, recording.bytes());
            return report;
        }
        // `shared` publishes no data (the recording is published by its
        // `OnceLock`), so it needs no ordering of its own.
        if recording.origin == platform_of(cfg) && !slot.shared.load(Ordering::Relaxed) {
            self.lock().stats.live_repeats += 1;
            return run_live(system, cfg);
        }
        slot.shared.store(true, Ordering::Relaxed);
        self.lock().stats.replayed += 1;
        recording.replay(cfg)
    }

    /// The slot of `system` under `key`, a new empty one (the newest)
    /// if there is none.
    fn slot(&self, key: String, system: &System) -> Arc<Slot> {
        let mut inner = self.lock();
        if let Some(slot) = inner.find(&key, system) {
            return slot;
        }
        let slot = Arc::new(Slot {
            system: inner.snapshot(system),
            recording: OnceLock::new(),
            shared: AtomicBool::new(false),
        });
        inner.held.push(Held {
            key,
            slot: Arc::clone(&slot),
            booked: 0,
        });
        slot
    }

    /// Books the `bytes` of `slot`'s fresh recording, then evicts oldest
    /// first until the store is inside its budget. A slot evicted while
    /// it was being recorded books nothing: its cells still finish, and
    /// the next cell of the identity records again.
    fn admit(&self, slot: &Arc<Slot>, bytes: usize) {
        let mut inner = self.lock();
        inner.stats.recorded += 1;
        match inner.held.iter_mut().find(|h| Arc::ptr_eq(&h.slot, slot)) {
            Some(held) => held.booked = bytes,
            None => return,
        }
        inner.stats.bytes = inner.held_bytes();
        while inner.stats.bytes > self.budget {
            inner.held.remove(0);
            inner.stats.bytes = inner.held_bytes();
            inner.stats.evictions += 1;
        }
    }
}

/// The key of a cell's physics identity: `cfg` printed with its
/// platform — network, CPUs per node, jitter seed — and its tracing
/// switch set to fixed values. Everything else a rank body or the
/// engine's unscaled accounting could read is in it: the energy model,
/// middleware, rank count, steps, timestep, collective tuning, PME
/// implementation, CPU and cost model, slow nodes. A one-rank cell
/// sends no message, so its middleware cannot show in its script. The
/// rest of the identity is the system, compared bit for bit.
pub(crate) fn config_key(cfg: &MdConfig) -> String {
    let mut physics = *cfg;
    let c = &mut physics.cluster;
    (c.network, c.cpus_per_node, c.seed, c.record_trace) = (NetworkKind::TcpGigE, 1, 0, false);
    if c.ranks == 1 {
        physics.middleware = Middleware::Mpi;
    }
    // Debug prints every field, and every f64 exactly.
    format!("{physics:?}")
}

/// Whether two slices are equal in every word `words` gives of an
/// element. The OR of the XORs of all word pairs is zero exactly when
/// they are; no early exit, so the loop has no branch to mispredict.
fn same_terms<T, const N: usize>(a: &[T], b: &[T], words: impl Fn(&T) -> [u64; N]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).fold(0, |d, (x, y)| {
            let (x, y) = (words(x), words(y));
            x.iter().zip(&y).fold(d, |d, (p, q)| d | (p ^ q))
        }) == 0
}

fn vec3_words(v: &Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// Whether two systems are equal bit for bit: box, positions,
/// velocities, and the topology — classes, charges, bonded terms with
/// their parameters, exclusions. Floats compare by their bits, so a
/// `-0.0` or a NaN payload tells two systems apart. Every struct is
/// destructured whole, so a field added to any of them fails to compile
/// here until it is compared.
fn same_system(a: &System, b: &System) -> bool {
    let System {
        topology,
        pbox: PbcBox { lengths },
        positions,
        velocities,
    } = a;
    let Topology {
        atoms,
        bonds,
        angles,
        dihedrals,
        impropers,
        exclusions,
    } = topology;
    let t = &b.topology;
    same_terms(&[*lengths], &[b.pbox.lengths], vec3_words)
        && same_terms(positions, &b.positions, vec3_words)
        && same_terms(velocities, &b.velocities, vec3_words)
        && same_terms(atoms, &t.atoms, |&Atom { class, charge }| {
            [class as u64, charge.to_bits()]
        })
        && same_terms(bonds, &t.bonds, |&Bond { i, j, param }| {
            let BondParam { k, r0 } = param;
            [i as u64, j as u64, k.to_bits(), r0.to_bits()]
        })
        && same_terms(angles, &t.angles, |&Angle { i, j, k, param }| {
            let AngleParam {
                k: kf,
                theta0,
                kub,
                s0,
            } = param;
            let f = [kf, theta0, kub, s0].map(f64::to_bits);
            [i as u64, j as u64, k as u64, f[0], f[1], f[2], f[3]]
        })
        && same_terms(
            dihedrals,
            &t.dihedrals,
            |&Dihedral { i, j, k, l, param }| {
                let DihedralParam { k: kf, n, delta } = param;
                let (kf, delta) = (kf.to_bits(), delta.to_bits());
                [
                    i as u64,
                    j as u64,
                    k as u64,
                    l as u64,
                    u64::from(n),
                    kf,
                    delta,
                ]
            },
        )
        && same_terms(
            impropers,
            &t.impropers,
            |&Improper { i, j, k, l, param }| {
                let ImproperParam { k: kf, psi0 } = param;
                [
                    i as u64,
                    j as u64,
                    k as u64,
                    l as u64,
                    kf.to_bits(),
                    psi0.to_bits(),
                ]
            },
        )
        && exclusions.len() == t.exclusions.len()
        && exclusions.iter().zip(&t.exclusions).all(|(x, y)| {
            // An inline loop: a `Vec ==` per row calls out per row.
            x.len() == y.len() && x.iter().zip(y).fold(0, |d, (p, q)| d | (p ^ q)) == 0
        })
}

/// Heap and inline bytes of a system snapshot, by allocated capacity.
fn system_bytes(system: &System) -> usize {
    fn held<T>(xs: &Vec<T>) -> usize {
        xs.capacity() * std::mem::size_of::<T>()
    }
    let t = &system.topology;
    std::mem::size_of::<System>()
        + held(&system.positions)
        + held(&system.velocities)
        + held(&t.atoms)
        + held(&t.bonds)
        + held(&t.angles)
        + held(&t.dihedrals)
        + held(&t.impropers)
        + held(&t.exclusions)
        + t.exclusions.iter().map(held).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::{run_parallel_md_faulty, FaultConfig};
    use cpc_cluster::{ClusterConfig, Op, Phase, RankStats};
    use cpc_fft::Dims3;
    use cpc_md::builder::water_box;
    use cpc_md::forcefield::AtomClass;
    use cpc_md::pme::PmeParams;
    use cpc_md::EnergyModel;
    use std::collections::hash_map::{Entry, HashMap};

    const NETWORKS: [NetworkKind; 3] = [
        NetworkKind::TcpGigE,
        NetworkKind::ScoreGigE,
        NetworkKind::MyrinetGm,
    ];

    fn system() -> System {
        let mut sys = water_box(2, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 10);
        sys.assign_velocities(150.0, 5);
        sys
    }

    /// A two-step PME cell on `p` ranks of `network`, one or two per node.
    fn cell(p: usize, mw: Middleware, network: NetworkKind, dual: bool) -> MdConfig {
        let mut cluster = ClusterConfig::uni(p, network);
        cluster.cpus_per_node = 1 + usize::from(dual);
        let model = EnergyModel::Pme(PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta: 0.34,
        });
        MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(model, mw, cluster)
        }
    }

    /// Every platform of the grid: three networks, uni and dual nodes.
    fn platforms() -> impl Iterator<Item = (NetworkKind, bool)> {
        NETWORKS
            .into_iter()
            .flat_map(|n| [false, true].map(|dual| (n, dual)))
    }

    /// One operation with its compute charge as bits.
    fn op_bits(op: &Op) -> String {
        match op {
            Op::Compute(seconds) => format!("Compute({:#x})", seconds.to_bits()),
            other => format!("{other:?}"),
        }
    }

    /// A rank's statistics, every float by its bits: phase buckets,
    /// counters, throughput samples and traced messages.
    fn stats_bits(s: &RankStats) -> Vec<u64> {
        let mut bits = vec![s.msgs_sent, s.bytes_sent, s.retransmits, s.msgs_lost];
        for ph in Phase::ALL {
            let b = s.bucket(ph);
            bits.extend([b.comp.to_bits(), b.comm.to_bits(), b.sync.to_bits()]);
        }
        for t in &s.throughput {
            bits.extend([t.node as u64, t.bytes as u64, t.rate.to_bits()]);
        }
        for e in &s.trace {
            bits.extend([
                e.src as u64,
                e.dst as u64,
                e.bytes as u64,
                u64::from(e.payload),
            ]);
            bits.extend([e.departure.to_bits(), e.arrival.to_bits()]);
        }
        bits
    }

    /// Everything a report says, every float by its bits.
    fn report_bits(r: &RunReport) -> Vec<u64> {
        let mut bits = vec![r.wall_time.to_bits(), r.steps as u64];
        bits.extend(r.per_rank.iter().flat_map(stats_bits));
        for e in &r.step_energies {
            bits.extend([e.classic.to_bits(), e.pme.to_bits(), e.kinetic.to_bits()]);
        }
        for v in r.final_positions.iter().chain(&r.final_velocities) {
            bits.extend([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]);
        }
        bits
    }

    /// Scripts recorded on every network x node platform of one
    /// identity are one script, op for op, compute charges by their
    /// bits; cells whose scripts differ never share an identity. A
    /// middleware left out of the identity puts MPI and CMPI cells in
    /// one group; charges recorded after the node's scaling split uni
    /// from dual.
    #[test]
    fn the_identity_is_complete() {
        let sys = system();
        let mut groups: HashMap<String, (String, Vec<Vec<String>>)> = HashMap::new();
        for p in [1, 2, 8] {
            for mw in Middleware::ALL {
                for (network, dual) in platforms() {
                    let cfg = cell(p, mw, network, dual);
                    let (_, scripts) = run_recorded(&sys, &cfg);
                    let ops: Vec<Vec<String>> = (scripts.iter())
                        .map(|s| s.iter().map(op_bits).collect())
                        .collect();
                    let at = format!("p={p} {mw:?} {network:?} dual={dual}");
                    match groups.entry(config_key(&cfg)) {
                        Entry::Vacant(e) => drop(e.insert((at, ops))),
                        Entry::Occupied(e) => {
                            let (first, want) = e.get();
                            for (rank, (w, g)) in want.iter().zip(&ops).enumerate() {
                                let diverge = w.iter().zip(g).position(|(a, b)| a != b);
                                assert!(
                                    diverge.is_none() && w.len() == g.len(),
                                    "{at} vs {first}, rank {rank}: first difference at op \
                                     {diverge:?} of {} / {}",
                                    g.len(),
                                    w.len()
                                );
                            }
                        }
                    }
                }
            }
        }
        // Both middlewares at p = 2 and 8; one at p = 1, which sends nothing.
        assert_eq!(groups.len(), 5);
    }

    /// The test system with one term of every kind: the water box, plus
    /// a dihedral and an improper across its first two molecules.
    fn system_with_every_term() -> System {
        let mut sys = system();
        let t = &mut sys.topology;
        let (k, n, delta) = (0.2, 3, 0.0);
        let param = DihedralParam { k, n, delta };
        t.dihedrals.push(Dihedral {
            i: 0,
            j: 1,
            k: 3,
            l: 4,
            param,
        });
        let param = ImproperParam { k: 1.0, psi0: 0.0 };
        t.impropers.push(Improper {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            param,
        });
        sys
    }

    /// `x` with its lowest bit flipped.
    fn flip(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    /// Systems that differ from a recorded one in a single word — one
    /// bit of a position, a velocity, a box length, a charge or a
    /// bonded parameter, `+0.0` against `-0.0`, a class, a bonded
    /// index, a dihedral multiplicity, an exclusion partner or an
    /// exclusion row's length — each miss the store and record, and
    /// each report is that system's own live run. The recorded system
    /// still replays.
    #[test]
    fn the_identity_separates_systems_that_differ_in_one_word() {
        let base = system_with_every_term();
        type Mutation = (&'static str, fn(&mut System));
        let mutations: [Mutation; 14] = [
            ("position bit", |s| flip(&mut s.positions[4].y)),
            ("velocity bit", |s| flip(&mut s.velocities[7].z)),
            ("box length bit", |s| flip(&mut s.pbox.lengths.x)),
            ("charge bit", |s| flip(&mut s.topology.atoms[2].charge)),
            ("class", |s| {
                let class = &mut s.topology.atoms[1].class;
                *class = *AtomClass::ALL.iter().find(|&&c| c != *class).unwrap();
            }),
            ("bond index", |s| s.topology.bonds[0].j = 5),
            ("bond parameter bit", |s| {
                flip(&mut s.topology.bonds[1].param.r0)
            }),
            ("angle parameter bit", |s| {
                flip(&mut s.topology.angles[0].param.k)
            }),
            ("dihedral multiplicity", |s| {
                s.topology.dihedrals[0].param.n = 2
            }),
            ("dihedral phase -0.0", |s| {
                s.topology.dihedrals[0].param.delta = -0.0
            }),
            ("improper index", |s| s.topology.impropers[0].l = 5),
            ("improper parameter bit", |s| {
                flip(&mut s.topology.impropers[0].param.k)
            }),
            ("exclusion partner", |s| s.topology.exclusions[0][1] = 3),
            ("exclusion row length", |s| {
                let row = &mut s.topology.exclusions[1];
                row.truncate(row.len() - 1);
            }),
        ];
        let store = ScriptStore::with_budget(BUDGET_BYTES);
        let recorded_on = cell(2, Middleware::Mpi, NetworkKind::TcpGigE, false);
        let elsewhere = cell(2, Middleware::Mpi, NetworkKind::MyrinetGm, true);
        store.run(&base, &recorded_on);
        for (at, (what, mutate)) in mutations.iter().enumerate() {
            let mut other = base.clone();
            mutate(&mut other);
            assert!(same_system(&base, &base.clone()), "{what}");
            assert!(!same_system(&base, &other), "{what}");
            let got = store.run(&other, &elsewhere);
            let s = store.stats();
            assert_eq!((s.recorded, s.replayed), (at as u64 + 2, 0), "{what}");
            let live = run_live(&other, &elsewhere);
            assert_eq!(format!("{got:?}"), format!("{live:?}"), "{what}");
        }
        let got = store.run(&base, &elsewhere);
        assert_eq!(store.stats().replayed, 1, "the recorded system replays");
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", run_live(&base, &elsewhere))
        );
    }

    /// MPI/CMPI x p in {1, 2, 4, 8}: one recording, replayed on three
    /// networks x uni/dual nodes with tracing on, is each platform's live
    /// run — every phase bucket, counter, throughput sample and traced
    /// message, and the physics, by their bits. The physics is also the
    /// fault-tolerant driver's on an empty plan, which records nothing.
    #[test]
    fn a_replay_is_the_live_run_on_every_observable() {
        let sys = system();
        for mw in Middleware::ALL {
            for p in [1, 2, 4, 8] {
                let recorded_on = cell(p, mw, NetworkKind::TcpGigE, false);
                let (live, scripts) = run_recorded(&sys, &recorded_on);
                let physics = (
                    live.step_energies,
                    live.final_positions,
                    live.final_velocities,
                );
                let recording = Recording::new(&scripts, physics, platform_of(&recorded_on));
                let ft = run_parallel_md_faulty(&sys, &recorded_on, &FaultConfig::default())
                    .expect("an empty fault plan completes")
                    .report;
                assert_eq!(ft.final_positions, recording.physics.1, "p={p} {mw:?}");
                assert_eq!(ft.final_velocities, recording.physics.2, "p={p} {mw:?}");
                for (network, dual) in platforms() {
                    let mut cfg = cell(p, mw, network, dual);
                    cfg.cluster.record_trace = true;
                    let live = run_live(&sys, &cfg);
                    let replayed = recording.replay(&cfg);
                    let at = format!("p={p} {mw:?} {network:?} dual={dual}");
                    assert!(p == 1 || live.per_rank.iter().all(|s| !s.trace.is_empty()));
                    assert_eq!(report_bits(&replayed), report_bits(&live), "{at}");
                    assert_eq!(format!("{replayed:?}"), format!("{live:?}"), "{at}");
                }
            }
        }
    }

    /// The most messages a lowest-rank-first sweep of `scripts` ever has
    /// sent and not yet received, and how many it sends in all.
    fn peak_in_flight(scripts: &[Script]) -> (usize, usize) {
        let mut next = vec![0; scripts.len()];
        let mut sent: Vec<Vec<(usize, u64)>> = vec![Vec::new(); scripts.len()];
        let (mut in_flight, mut peak, mut messages) = (0, 0, 0);
        let mut moved = true;
        while std::mem::take(&mut moved) {
            for (rank, script) in scripts.iter().enumerate() {
                while let Some(op) = script.get(next[rank]) {
                    match *op {
                        Op::Send { dst, tag, .. } => {
                            sent[dst].push((rank, tag));
                            in_flight += 1;
                            messages += 1;
                            peak = peak.max(in_flight);
                        }
                        Op::Recv { src, tag } => {
                            match sent[rank].iter().position(|&m| m == (src, tag)) {
                                Some(at) => drop(sent[rank].remove(at)),
                                None => break,
                            }
                            in_flight -= 1;
                        }
                        Op::Phase(_) | Op::Compute(_) => {}
                    }
                    next[rank] += 1;
                    moved = true;
                }
            }
        }
        assert_eq!(in_flight, 0, "every message is received");
        (peak, messages)
    }

    /// A linked water-box PME cell holds one slot per message in flight
    /// at the sweep's peak — far fewer than it sends — and the store
    /// books at least every byte its schedule and physics allocated.
    #[test]
    fn the_slot_table_is_the_peak_in_flight_and_the_bytes_are_booked() {
        let sys = system();
        for p in [2, 8] {
            let cfg = cell(p, Middleware::Mpi, NetworkKind::TcpGigE, false);
            let (live, scripts) = run_recorded(&sys, &cfg);
            let (peak, messages) = peak_in_flight(&scripts);
            let physics = (
                live.step_energies,
                live.final_positions,
                live.final_velocities,
            );
            let recording = Recording::new(&scripts, physics, platform_of(&cfg));
            assert_eq!(recording.schedule.slots(), peak, "p={p}");
            assert!(
                8 * peak < messages,
                "p={p}: {peak} slots for {messages} messages"
            );
            let (energies, positions, velocities) = &recording.physics;
            let held = recording.schedule.bytes()
                + energies.capacity() * std::mem::size_of_val(&energies[0])
                + positions.capacity() * std::mem::size_of_val(&positions[0])
                + velocities.capacity() * std::mem::size_of_val(&velocities[0]);
            assert!(recording.bytes() >= held, "p={p}");
        }
    }

    /// Cells of two identities through one store, every platform: each
    /// report is byte-identical to the cell run live, whether it
    /// recorded or replayed; each identity recorded once.
    #[test]
    fn recorded_replayed_and_live_reports_are_byte_identical() {
        let sys = system();
        let store = ScriptStore::with_budget(BUDGET_BYTES);
        for mw in Middleware::ALL {
            for (network, dual) in platforms() {
                let cfg = cell(4, mw, network, dual);
                let got = store.run(&sys, &cfg);
                assert_eq!(format!("{got:?}"), format!("{:?}", run_live(&sys, &cfg)));
            }
        }
        let s = store.stats();
        assert_eq!((s.recorded, s.replayed, s.live_repeats), (2, 10, 0));
        assert!(s.bytes > 0 && s.evictions == 0);
    }

    /// Platforms A, A, B, A of one identity: A records, A's repeat runs
    /// live, B replays, and from then on A replays too. Every report is
    /// the live one.
    #[test]
    fn a_repeat_on_the_recording_platform_runs_live_until_another_replays() {
        let sys = system();
        let store = ScriptStore::with_budget(BUDGET_BYTES);
        let a = cell(2, Middleware::Cmpi, NetworkKind::TcpGigE, false);
        let b = cell(2, Middleware::Cmpi, NetworkKind::MyrinetGm, true);
        let counts = |s: ReplayStats| (s.recorded, s.live_repeats, s.replayed);
        for (cfg, after) in [
            (a, (1, 0, 0)),
            (a, (1, 1, 0)),
            (b, (1, 1, 1)),
            (a, (1, 1, 2)),
        ] {
            let got = store.run(&sys, &cfg);
            assert_eq!(format!("{got:?}"), format!("{:?}", run_live(&sys, &cfg)));
            assert_eq!(counts(store.stats()), after);
        }
    }

    /// Cells of one identity on four platforms arriving together: one
    /// records, the other three wait for it and replay, and each report
    /// is its live one.
    #[test]
    fn concurrent_cells_of_one_identity_wait_for_one_recording() {
        let sys = system();
        let store = ScriptStore::with_budget(BUDGET_BYTES);
        let cells: Vec<MdConfig> = (platforms().take(4))
            .map(|(network, dual)| cell(8, Middleware::Mpi, network, dual))
            .collect();
        let start = std::sync::Barrier::new(cells.len());
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (cells.iter())
                .map(|cfg| {
                    let (store, sys, start) = (&store, &sys, &start);
                    scope.spawn(move || {
                        start.wait();
                        store.run(sys, cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = store.stats();
        assert_eq!((s.recorded, s.replayed, s.live_repeats), (1, 3, 0));
        for (cfg, got) in cells.iter().zip(&reports) {
            assert_eq!(format!("{got:?}"), format!("{:?}", run_live(&sys, cfg)));
        }
    }

    /// Three identities of one system through a store that holds two:
    /// the third recording evicts the first, the held bytes — the
    /// recordings, and their shared system once — never pass the
    /// budget, and the evicted identity records again where the held
    /// one replays.
    #[test]
    fn the_budget_is_never_exceeded_and_eviction_is_oldest_first() {
        let sys = system();
        let identities = [1, 2, 3].map(|steps| MdConfig {
            steps,
            ..cell(2, Middleware::Mpi, NetworkKind::TcpGigE, false)
        });
        let elsewhere = |cfg: &MdConfig| {
            let mut cfg = *cfg;
            cfg.cluster.network = NetworkKind::MyrinetGm;
            cfg
        };
        let snapshot = system_bytes(&sys.clone());
        let sizes = identities.map(|cfg| {
            let store = ScriptStore::with_budget(BUDGET_BYTES);
            store.run(&sys, &cfg);
            store.stats().bytes - snapshot
        });
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        let budget = snapshot + sizes[1] + sizes[2];
        let store = ScriptStore::with_budget(budget);
        let counts = || {
            let s = store.stats();
            assert!(s.bytes <= budget);
            (s.recorded, s.replayed, s.evictions)
        };
        for cfg in &identities {
            store.run(&sys, cfg);
        }
        assert_eq!(counts(), (3, 0, 1));
        assert_eq!(store.stats().bytes, budget);
        store.run(&sys, &elsewhere(&identities[1]));
        assert_eq!(counts(), (3, 1, 1), "the second identity is held");
        store.run(&sys, &elsewhere(&identities[0]));
        assert_eq!(
            counts(),
            (4, 1, 2),
            "the first was evicted, then the second"
        );
        store.run(&sys, &elsewhere(&identities[2]));
        assert_eq!(counts(), (4, 2, 2), "the third is held");
    }
}
