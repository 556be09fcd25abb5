//! Pins the fault-tolerant MD driver's *virtual time* across commits.
//!
//! CI `cmp`s two runs of one build and the `reproducers/` corpus pins
//! verdicts; neither notices a refactor that moves a heartbeat, a
//! checkpoint charge or a list rebuild into another phase. Each
//! scenario below — fixtures taken from `recover.rs::tests`,
//! `tests/abft.rs` and `tests/fault_injection.rs` — is reduced to one
//! FNV-1a digest over every bit the driver reports: wall and recovery
//! time, detector maxima, every rank's every phase bucket and message
//! counters, every step energy, the final state, and every counter and
//! rank list of the `FtReport`. The digests were recorded from the
//! build *before* the two MD loops came to share `RankMd`'s moves and
//! must never be edited by a refactor: a digest that moves is a
//! behaviour change and needs its own commit and reason.

use cpc::prelude::*;
use cpc_charmm::recover::{run_parallel_md_faulty, AbftConfig, FaultConfig, FtReport};
use cpc_charmm::{CommTuning, DurableConfig, PmeImpl, RecoveryConfig, WatchdogConfig};
use cpc_cluster::{FaultPlan, SdcFault, SdcTarget};
use cpc_fft::Dims3;
use cpc_md::pme::PmeParams;
use cpc_mpi::CombineAlgo;

/// FNV-1a over 64-bit words, little-endian.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn list(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }

    fn report(&mut self, r: &RunReport) {
        self.f(r.wall_time);
        self.word(r.per_rank.len() as u64);
        for s in &r.per_rank {
            for b in &s.buckets {
                self.f(b.comp);
                self.f(b.comm);
                self.f(b.sync);
            }
            self.word(s.msgs_sent);
            self.word(s.bytes_sent);
            self.word(s.retransmits);
            self.word(s.msgs_lost);
        }
        self.word(r.step_energies.len() as u64);
        for e in &r.step_energies {
            self.f(e.classic);
            self.f(e.pme);
            self.f(e.kinetic);
        }
        for v in r.final_positions.iter().chain(&r.final_velocities) {
            self.f(v.x);
            self.f(v.y);
            self.f(v.z);
        }
    }

    fn ft(&mut self, ft: &FtReport) {
        self.report(&ft.report);
        self.f(ft.recovery_time);
        self.f(ft.phi_max);
        self.f(ft.srtt_max);
        self.list(&ft.crashed_ranks);
        self.list(&ft.evicted_ranks);
        self.list(&[
            ft.survivors,
            ft.recoveries,
            ft.watchdog_trips,
            ft.diverged as usize,
            ft.sdc_events,
            ft.completed as usize,
            ft.rebalances,
            ft.evictions,
            ft.abft_detections,
            ft.abft_recomputes,
        ]);
        self.word(ft.resumed_from.map_or(u64::MAX, |g| g));
        self.word(ft.restore_failure.is_some() as u64);
        self.word(ft.corruptions.len() as u64);
        for c in &ft.corruptions {
            for b in format!("{c:?}").bytes() {
                self.word(b as u64);
            }
        }
    }
}

fn small_system() -> System {
    let mut sys = cpc_md::builder::water_box(2, 3.1);
    cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
    sys.assign_velocities(150.0, 3);
    sys
}

/// Big enough for compute to dominate the combine, so a re-cut pays.
fn big_system() -> System {
    let mut sys = cpc_md::builder::water_box(3, 3.1);
    cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
    sys.assign_velocities(150.0, 3);
    sys
}

fn classic(p: usize, steps: usize) -> MdConfig {
    MdConfig {
        steps,
        ..MdConfig::paper_protocol(
            EnergyModel::Classic,
            Middleware::Mpi,
            ClusterConfig::uni(p, NetworkKind::ScoreGigE),
        )
    }
}

fn pme(p: usize, steps: usize) -> MdConfig {
    MdConfig {
        steps,
        ..MdConfig::paper_protocol(
            EnergyModel::Pme(PmeParams {
                grid: Dims3::new(16, 16, 16),
                order: 4,
                beta: 0.34,
            }),
            Middleware::Mpi,
            ClusterConfig::uni(p, NetworkKind::TcpGigE),
        )
    }
}

fn tuned(algo: CombineAlgo) -> MdConfig {
    MdConfig {
        tuning: CommTuning {
            force_combine: algo,
            grid_sum: algo,
        },
        ..pme(4, 2)
    }
}

fn spatial() -> MdConfig {
    MdConfig {
        pme_impl: PmeImpl::Spatial,
        ..pme(4, 2)
    }
}

fn flip(step: u64, target: SdcTarget, atom: usize, axis: u8, bit: u8) -> FaultPlan {
    FaultPlan::none().with_sdc(SdcFault {
        step,
        target,
        atom,
        axis,
        bit,
    })
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cpc-ft-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scenario digests computed so far, in a fixed order.
struct Computed(Vec<(&'static str, u64)>);

impl Computed {
    fn plain(&mut self, name: &'static str, sys: &System, cfg: &MdConfig) {
        let mut d = Digest::new();
        d.report(&run_parallel_md(sys, cfg));
        self.0.push((name, d.0));
    }

    /// Runs the FT driver, records the digest and hands the report
    /// back so the scenario can assert it is the one its name says.
    fn ft(
        &mut self,
        name: &'static str,
        sys: &System,
        cfg: &MdConfig,
        fault: &FaultConfig,
    ) -> FtReport {
        let ft = run_parallel_md_faulty(sys, cfg, fault).expect("no rank panics");
        let mut d = Digest::new();
        d.ft(&ft);
        self.0.push((name, d.0));
        ft
    }
}

fn scenarios() -> Vec<(&'static str, u64)> {
    let sys = small_system();
    let big = big_system();
    let armed = AbftConfig::armed();
    let zero = FaultConfig::default();
    let mut pin = Computed(Vec::new());

    // The plain driver on the fault-free configurations.
    pin.plain("plain classic p=3", &sys, &classic(3, 3));
    pin.plain("plain pme p=4 replicated", &sys, &pme(4, 2));
    pin.plain("plain pme p=4 spatial", &sys, &spatial());
    pin.plain("plain pme p=4 tree", &sys, &tuned(CombineAlgo::Tree));
    pin.plain("plain pme p=4 ring", &sys, &tuned(CombineAlgo::Ring));

    // Zero plan: the same loop plus heartbeats and checkpoints.
    let ft = pin.ft("zero classic p=3", &sys, &classic(3, 3), &zero);
    assert!(ft.completed && ft.recoveries == 0 && ft.recovery_time == 0.0);
    pin.ft("zero pme p=4 replicated", &sys, &pme(4, 2), &zero);
    pin.ft("zero pme p=4 spatial", &sys, &spatial(), &zero);
    pin.ft("zero pme p=4 tree", &sys, &tuned(CombineAlgo::Tree), &zero);
    pin.ft("zero pme p=4 ring", &sys, &tuned(CombineAlgo::Ring), &zero);

    // ABFT armed, fault-free: only the charged checksum work moves.
    let zero_armed = FaultConfig::default().with_abft(armed);
    let ft = pin.ft("armed classic p=3", &sys, &classic(3, 3), &zero_armed);
    assert!(ft.completed && ft.abft_detections == 0);
    let ft = pin.ft("armed pme p=3", &sys, &pme(3, 2), &zero_armed);
    assert!(ft.completed && ft.abft_detections == 0);

    // Crashes.
    let wall = run_parallel_md(&sys, &classic(3, 4)).wall_time;
    let crash_mid = FaultPlan::none().with_crash(2, 0.5 * wall);
    let ft = pin.ft(
        "crash mid-run",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(crash_mid.clone()),
    );
    assert!(ft.completed && ft.crashed_ranks == [2] && ft.recoveries >= 1);
    let wall = run_parallel_md(&sys, &pme(4, 3)).wall_time;
    let ft = pin.ft(
        "crash mid-run, pme",
        &sys,
        &pme(4, 3),
        &FaultConfig::new(FaultPlan::none().with_crash(1, 0.5 * wall)),
    );
    assert!(ft.completed && ft.crashed_ranks == [1] && ft.recoveries >= 1);
    let ft = pin.ft(
        "crash at step 0",
        &sys,
        &classic(4, 2),
        &FaultConfig::new(FaultPlan::none().with_crash(1, 0.0)),
    );
    assert!(ft.completed && ft.crashed_ranks == [1]);
    let ft = pin.ft(
        "sparse heartbeats, crash",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(crash_mid).with_recovery(RecoveryConfig {
            heartbeat_interval: 2,
            ..RecoveryConfig::default()
        }),
    );
    assert!(ft.completed && ft.crashed_ranks == [2] && ft.recoveries >= 1);

    // Transport faults.
    let ft = pin.ft(
        "loss",
        &sys,
        &classic(4, 2),
        &FaultConfig::new(FaultPlan::none().with_loss(0.1)),
    );
    assert!(ft.report.per_rank.iter().any(|s| s.retransmits > 0));
    let wall = run_parallel_md(&sys, &classic(3, 3)).wall_time;
    pin.ft(
        "loss + straggler + crash",
        &sys,
        &classic(3, 3),
        &FaultConfig::new(
            FaultPlan::none()
                .with_loss(0.05)
                .with_straggler(0, 1.5)
                .with_crash(2, 0.5 * wall),
        ),
    );

    // The degradation ladder.
    let slow = FaultConfig::new(FaultPlan::none().with_straggler(0, 2.0));
    let ft = pin.ft("straggler rebalanced", &big, &classic(4, 6), &slow);
    assert!(ft.completed && ft.rebalances >= 1 && ft.recoveries == 0);
    let ft = pin.ft("straggler rebalanced, pme", &big, &pme(4, 6), &slow);
    assert!(ft.completed && ft.rebalances >= 1 && ft.recoveries == 0);
    let ft = pin.ft(
        "straggler, static cuts",
        &big,
        &classic(4, 6),
        &slow.clone().with_recovery(RecoveryConfig {
            rebalance: false,
            ..RecoveryConfig::default()
        }),
    );
    assert!(ft.completed && ft.rebalances == 0);
    let ft = pin.ft(
        "straggler evicted",
        &sys,
        &classic(4, 6),
        &FaultConfig::new(FaultPlan::none().with_straggler(0, 6.0)),
    );
    assert!(ft.completed && ft.evicted_ranks == [0] && ft.recoveries == 0);

    // Silent data corruption.
    let gray = flip(2, SdcTarget::Positions, 5, 1, 40);
    let ft = pin.ft(
        "position flip, armed: repaired",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(gray.clone()).with_abft(armed),
    );
    assert!(ft.completed && ft.abft_recomputes == 1 && ft.watchdog_trips == 0);
    let ft = pin.ft(
        "position flip, disarmed: silent",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(gray),
    );
    assert!(ft.completed && ft.sdc_events == 1 && ft.watchdog_trips == 0);
    let ft = pin.ft(
        "position flip, disarmed: watchdog",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(flip(3, SdcTarget::Positions, 2, 0, 62)),
    );
    assert!(ft.completed && ft.watchdog_trips >= 1 && !ft.diverged);
    let ft = pin.ft(
        "force flip, armed: recomputed",
        &sys,
        &classic(3, 4),
        &FaultConfig::new(flip(3, SdcTarget::Forces, 11, 2, 55)).with_abft(armed),
    );
    assert!(ft.completed && ft.abft_detections == 1 && ft.abft_recomputes >= 1);
    let ft = pin.ft(
        "watchdog gives up",
        &sys,
        &classic(3, 4),
        &FaultConfig::default().with_watchdog(WatchdogConfig {
            max_rel_drift: 0.0,
            max_rollbacks: 2,
        }),
    );
    assert!(ft.diverged && ft.watchdog_trips == 3);

    // Durable checkpoints and resume.
    let durable = |dir: &std::path::Path, resume: bool| {
        FaultConfig::default().with_durable(DurableConfig::new(dir).with_resume(resume))
    };
    let dir = ckpt_dir("resume");
    pin.ft(
        "durable, killed after 2 of 4",
        &sys,
        &classic(3, 2),
        &durable(&dir, false),
    );
    let ft = pin.ft(
        "resumed from step 2",
        &sys,
        &classic(3, 4),
        &durable(&dir, true),
    );
    assert!(ft.completed && ft.resumed_from == Some(2));
    let _ = std::fs::remove_dir_all(&dir);

    let dir = ckpt_dir("fallback");
    run_parallel_md_faulty(&sys, &classic(3, 2), &durable(&dir, false)).expect("no rank panics");
    let newest = dir.join("ckpt-0000000002.cpcsnap");
    let mut bytes = std::fs::read(&newest).expect("the step-2 generation exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).expect("the generation is writable");
    let ft = pin.ft(
        "resumed past a corrupt newest generation",
        &sys,
        &classic(3, 4),
        &durable(&dir, true),
    );
    assert!(ft.completed && ft.resumed_from == Some(0));
    let _ = std::fs::remove_dir_all(&dir);

    pin.0
}

/// Recorded at the parent of the `RankMd` refactor. Do not edit.
const PINS: &[(&str, u64)] = &[
    ("plain classic p=3", 0xbd0fb3ae846da1c0),
    ("plain pme p=4 replicated", 0xfa95613cdf96d384),
    ("plain pme p=4 spatial", 0x6cf24712594b1a0c),
    ("plain pme p=4 tree", 0x242ddf1ee09a061a),
    ("plain pme p=4 ring", 0xe702befa0669a9a7),
    ("zero classic p=3", 0xcf6cad003f22042c),
    ("zero pme p=4 replicated", 0x635fb168bc775200),
    ("zero pme p=4 spatial", 0x28d2fd3190fde745),
    ("zero pme p=4 tree", 0x2cd75abe557849e8),
    ("zero pme p=4 ring", 0xedec39475b6fe039),
    ("armed classic p=3", 0xbce3e9be852e1afe),
    ("armed pme p=3", 0xf9948971e862f220),
    ("crash mid-run", 0x4d4ad657f3931270),
    ("crash mid-run, pme", 0xe0ff30c7d0e513d4),
    ("crash at step 0", 0x423554b625591dab),
    ("sparse heartbeats, crash", 0xc85a89b93bd4e660),
    ("loss", 0xcce7666e2a942edf),
    ("loss + straggler + crash", 0xe8590948e10e98e3),
    ("straggler rebalanced", 0x285b94ff85a35c1f),
    ("straggler rebalanced, pme", 0x3b968cb4f41f8c18),
    ("straggler, static cuts", 0x2f790334a1e1b8de),
    ("straggler evicted", 0x6528a1017dd48f07),
    ("position flip, armed: repaired", 0xde5343fed4d3df0c),
    ("position flip, disarmed: silent", 0xa238262aad2abeb7),
    ("position flip, disarmed: watchdog", 0x0c9cde5e1e17c162),
    ("force flip, armed: recomputed", 0x02faa948a3179777),
    ("watchdog gives up", 0x1fc4e9bcfc38be86),
    ("durable, killed after 2 of 4", 0xcf3f7c3baa6953d4),
    ("resumed from step 2", 0x9b247d00e9f1bd05),
    (
        "resumed past a corrupt newest generation",
        0xf7753e1f019dbfdb,
    ),
];

#[test]
fn every_scenario_digest_is_the_recorded_one() {
    let got = scenarios();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "scenario list and pin table differ in length; computed:\n{table}"
    );
    for ((name, d), (pin_name, pin)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name, "scenario order changed; computed:\n{table}");
        assert_eq!(
            d, pin,
            "{name}: the FT driver's virtual time, counters or physics moved \
             ({d:#018x} != recorded {pin:#018x}); computed:\n{table}"
        );
    }
}
