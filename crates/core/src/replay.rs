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
//! another message sequence than MPI. The first cell of an identity
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
use cpc_md::topology::Topology;
use cpc_md::System;
use cpc_mpi::Middleware;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Byte budget of a store: the full campaign's seven identities (p = 2,
/// 4, 8 under both middlewares, and p = 1) hold 4.0 MiB, booked by
/// allocated capacity.
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
#[derive(Default)]
struct Slot {
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
    /// Bytes of the recordings held.
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

#[derive(Default)]
struct Inner {
    /// Every identity's slot and the bytes it holds (zero until its
    /// recording is admitted).
    slots: HashMap<u128, (Arc<Slot>, usize)>,
    /// The keys of `slots`, oldest first.
    order: VecDeque<u128>,
    stats: ReplayStats,
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
        let key = identity(system, cfg);
        let slot = self.slot(key);
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
            self.admit(key, &slot, recording.bytes());
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

    /// The slot of `key`, a new empty one (the newest) if there is none.
    fn slot(&self, key: u128) -> Arc<Slot> {
        let mut inner = self.lock();
        if let Some((slot, _)) = inner.slots.get(&key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot::default());
        inner.slots.insert(key, (Arc::clone(&slot), 0));
        inner.order.push_back(key);
        slot
    }

    /// Books the `bytes` of `slot`'s fresh recording, then evicts oldest
    /// first until the store is inside its budget. A slot evicted while
    /// it was being recorded books nothing: its cells still finish, and
    /// the next cell of the identity records again.
    fn admit(&self, key: u128, slot: &Arc<Slot>, bytes: usize) {
        let mut inner = self.lock();
        inner.stats.recorded += 1;
        match inner.slots.get_mut(&key) {
            Some((held, booked)) if Arc::ptr_eq(held, slot) => *booked = bytes,
            _ => return,
        }
        inner.stats.bytes += bytes;
        while inner.stats.bytes > self.budget {
            let oldest = inner.order.pop_front().expect("bytes held imply a slot");
            let (_, freed) = inner.slots.remove(&oldest).expect("ordered keys are held");
            inner.stats.bytes -= freed;
            inner.stats.evictions += 1;
        }
    }
}

/// The physics identity of a cell: a digest of the system and of `cfg`
/// with its platform — network, CPUs per node, jitter seed — and its
/// tracing switch set to fixed values. Everything else a rank body or
/// the engine's unscaled accounting could read is in it: the energy
/// model, middleware, rank count, steps, timestep, collective tuning,
/// PME implementation, CPU and cost model, slow nodes. A one-rank cell
/// sends no message, so its middleware cannot show in its script.
pub(crate) fn identity(system: &System, cfg: &MdConfig) -> u128 {
    let mut physics = *cfg;
    let c = &mut physics.cluster;
    (c.network, c.cpus_per_node, c.seed, c.record_trace) = (NetworkKind::TcpGigE, 1, 0, false);
    if c.ranks == 1 {
        physics.middleware = Middleware::Mpi;
    }
    let mut d = Digest::new();
    // Debug prints every field, and every f64 exactly.
    let text = format!("{physics:?}");
    d.word(text.len() as u64);
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.word(u64::from_le_bytes(word));
    }
    d.system(system);
    d.finish()
}

/// 128-bit digest over a stream of 64-bit words: two multiply-xorshift
/// lanes that both see every word. Each step is a bijection of its lane
/// for a fixed word and injective in the word for a fixed lane, so two
/// streams of equal length that differ in one word never collide.
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

    fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// The atom indices of one term.
    fn atoms(&mut self, is: &[usize]) {
        for &i in is {
            self.word(i as u64);
        }
    }

    /// Every bit of `system`: box, positions, velocities, and the
    /// topology — classes, charges, bonded terms with their parameters,
    /// exclusions — each list behind its length. The two structs are
    /// destructured whole, so a field added to either fails to compile
    /// here until it is digested.
    fn system(&mut self, system: &System) {
        let System {
            topology,
            pbox,
            positions,
            velocities,
        } = system;
        let l = pbox.lengths;
        self.f64s([l.x, l.y, l.z]);
        for xs in [positions, velocities] {
            self.word(xs.len() as u64);
            self.f64s(xs.iter().flat_map(|v| [v.x, v.y, v.z]));
        }
        let Topology {
            atoms,
            bonds,
            angles,
            dihedrals,
            impropers,
            exclusions,
        } = topology;
        self.word(atoms.len() as u64);
        for a in atoms {
            self.word(a.class as u64);
            self.f64s([a.charge]);
        }
        self.word(bonds.len() as u64);
        for b in bonds {
            self.atoms(&[b.i, b.j]);
            self.f64s([b.param.k, b.param.r0]);
        }
        self.word(angles.len() as u64);
        for a in angles {
            self.atoms(&[a.i, a.j, a.k]);
            self.f64s([a.param.k, a.param.theta0, a.param.kub, a.param.s0]);
        }
        self.word(dihedrals.len() as u64);
        for d in dihedrals {
            self.atoms(&[d.i, d.j, d.k, d.l]);
            self.word(u64::from(d.param.n));
            self.f64s([d.param.k, d.param.delta]);
        }
        self.word(impropers.len() as u64);
        for m in impropers {
            self.atoms(&[m.i, m.j, m.k, m.l]);
            self.f64s([m.param.k, m.param.psi0]);
        }
        self.word(exclusions.len() as u64);
        for partners in exclusions {
            self.word(partners.len() as u64);
            for &j in partners {
                self.word(u64::from(j));
            }
        }
    }

    /// The lane pair as is: the map re-hashes its keys.
    fn finish(&self) -> u128 {
        u128::from(self.a) << 64 | u128::from(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::{run_parallel_md_faulty, FaultConfig};
    use cpc_cluster::{ClusterConfig, Op, Phase, RankStats};
    use cpc_fft::Dims3;
    use cpc_md::builder::water_box;
    use cpc_md::pme::PmeParams;
    use cpc_md::EnergyModel;
    use std::collections::hash_map::Entry;

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
        let mut groups: HashMap<u128, (String, Vec<Vec<String>>)> = HashMap::new();
        for p in [1, 2, 8] {
            for mw in Middleware::ALL {
                for (network, dual) in platforms() {
                    let cfg = cell(p, mw, network, dual);
                    let (_, scripts) = run_recorded(&sys, &cfg);
                    let ops: Vec<Vec<String>> = (scripts.iter())
                        .map(|s| s.iter().map(op_bits).collect())
                        .collect();
                    let at = format!("p={p} {mw:?} {network:?} dual={dual}");
                    match groups.entry(identity(&sys, &cfg)) {
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

    /// Three identities through a store that holds two: the third
    /// recording evicts the first, the held bytes never pass the budget,
    /// and the evicted identity records again where the held one
    /// replays.
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
        let sizes = identities.map(|cfg| {
            let store = ScriptStore::with_budget(BUDGET_BYTES);
            store.run(&sys, &cfg);
            store.stats().bytes
        });
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        let store = ScriptStore::with_budget(sizes[1] + sizes[2]);
        let counts = || {
            let s = store.stats();
            assert!(s.bytes <= sizes[1] + sizes[2]);
            (s.recorded, s.replayed, s.evictions)
        };
        for cfg in &identities {
            store.run(&sys, cfg);
        }
        assert_eq!(counts(), (3, 0, 1));
        assert_eq!(store.stats().bytes, sizes[1] + sizes[2]);
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
