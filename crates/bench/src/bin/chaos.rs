//! The chaos campaign driver: one loop over deterministically sampled
//! fault schedules, each driven through the one chaos conductor
//! ([`cpc_chaos::run_composed_chaos`]) under a layer mask, every
//! oracle checked, any failure shrunk to a minimal replayable
//! reproducer.
//!
//! ```text
//! cargo run -p cpc-bench --bin chaos -- --schedules 100 --seed 7
//!     [--layers md,service,transport,disk,sched] [--soak] [--resume]
//!     [--out DIR] [--journal FILE] [--ranks P] [--steps N]
//! cargo run -p cpc-bench --bin chaos -- --plant [--out DIR]
//! cargo run -p cpc-bench --bin chaos -- --plant-composed [--corpus DIR]
//! cargo run -p cpc-bench --bin chaos -- --replay FILE
//! cargo run -p cpc-bench --bin chaos -- --replay-corpus DIR
//! cargo run -p cpc-bench --bin chaos -- --straggle-smoke | --abft-smoke [--out DIR]
//! ```
//!
//! * **The campaign** (`--schedules N`, default 50): checks schedules
//!   `0..N`. Schedule `i` is the [`ComposedPlan`] sampled from
//!   `(seed, i)` — every layer's faults drawn from its own seeded
//!   sub-channel — projected through the `--layers` mask (default: all
//!   five). A single-layer campaign is therefore the same loop under a
//!   one-layer mask: `--layers service` drives exactly the service
//!   schedules an all-layers run composes with the other four, through
//!   the same conductor, into the same [`CrossLedger`], judged by the
//!   same oracle union — each layer's own oracles, the campaign book
//!   judged once (no lost cell, ground-truth executions within the
//!   exact re-execution licence, the drained artifact byte-identical
//!   to a fault-free serial reference) and the interaction oracle (no
//!   acked-then-lost across a disk fault and a kill). `--layers md` is
//!   the MD-engine campaign: the serve campaign runs quiet and the MD
//!   fault schedule is checked by the [`ChaosHarness`] (`--ranks`,
//!   `--steps` shape its workload; the harness is built only when `md`
//!   is armed). Every verdict is
//!   journaled to `DIR/chaos.jsonl` through the checksummed
//!   [`Journal`](cpc_workload::Journal), so `--resume` skips schedules
//!   already checked after a kill — and refuses a journal recorded
//!   under a different mask. A failing schedule is minimized
//!   layer-first (whole layers dropped, then events within the
//!   survivors) and written as `DIR/cross-repro-IIIII.json`. The
//!   summary prints, per armed layer, the fault totals the schedules
//!   actually delivered, the execution book's slack, and — when two or
//!   more layers are armed — the pairwise interaction coverage, which
//!   must be complete. Exit 0 when every oracle held, 1 otherwise.
//!   Verdicts and reproducers are deterministic: the same seed and
//!   mask produce byte-identical artifacts on every rerun.
//! * **Soak** (`--soak`): ignores the schedule budget and scans indices
//!   upward indefinitely, stopping (exit 1) at the first violation —
//!   kill it when you have soaked long enough.
//! * **Plant mode** (`--plant`): self-test of the MD oracles and the
//!   minimizer against the pre-ABFT engine. Scans the campaign sampler
//!   for a schedule carrying a gray-zone SDC flip (neither benign nor
//!   watchdog-visible, buried in sampled noise events), checks it with
//!   the ABFT checksums disarmed, asserts an oracle catches it,
//!   minimizes, and asserts the reproducer has at most 3 events and
//!   still fails on replay. Exit 0 exactly when all of that holds.
//! * **Replay mode** (`--replay FILE`): re-checks the MD reproducer
//!   `--plant` writes. Exit 0 when it still provokes a violation (it
//!   reproduces), 1 when it no longer does.
//! * **Plant-composed mode** (`--plant-composed [--corpus DIR]`):
//!   self-test of the cross-layer oracles and the layer-first
//!   minimizer. Buries a gray-zone SDC flip under sampled noise from
//!   the other four layers, asserts the conductor convicts it, that
//!   minimization prunes every noise layer, and that the pin replays
//!   with a byte-identical verdict; then (re)plants that pin and a
//!   passing determinism pin into the reproducer corpus `DIR`
//!   (default `reproducers`).
//! * **Replay-corpus mode** (`--replay-corpus DIR`): CI gate over the
//!   reproducer corpus. Replays every `*.json` cross reproducer in
//!   DIR and exits 0 only if each one's verdict (pass or the recorded
//!   failure) is byte-identical to what the corpus recorded.
//! * **Straggle-smoke mode** (`--straggle-smoke`): CI gate for
//!   degraded-mode rebalancing. Runs a compute-dominated workload
//!   under a persistent straggler, asserts the mitigation contract
//!   (zero rollbacks, no eviction, adaptive overhead below the ratio
//!   bound of the static-decomposition overhead), and journals the
//!   verdict to `DIR/straggle_smoke.json` — fully deterministic, so CI
//!   runs it twice and `cmp`s the artifacts.
//! * **ABFT-smoke mode** (`--abft-smoke`): CI gate for the ABFT layer.
//!   The planted gray-zone schedule must pass every oracle with the
//!   checksums armed (detected and repaired in place), must fail and
//!   minimize to <= 3 events with them disarmed, and arming must cost
//!   at most 5% wall clock on the compute-dominated workload while
//!   leaving fault-free physics bit-identical. Journals
//!   `DIR/abft_smoke.json`; deterministic, CI `cmp`s two runs.

use cpc_bench::cli::{open_verdict_journal, Args};
use cpc_chaos::{
    minimize_composed, run_composed_chaos, ComposedChaosReport, ComposedFaultSpace, ComposedPlan,
    CrossLedger, CrossReproducer, DiskFaultSpace, Layer, LayerMask, SchedFaultSpace,
    ServiceFaultSpace, TransportFaultSpace, LAYERS,
};
use cpc_charmm::chaos::{flatten, ChaosHarness, Reproducer, ScheduleReport};
use cpc_charmm::{
    run_parallel_md_faulty, AbftConfig, DurableConfig, FaultConfig, MdConfig, RecoveryConfig,
};
use cpc_cluster::{
    sdc_class, ClusterConfig, FaultPlan, FaultSpace, NetworkKind, SdcClass, SdcTarget,
};
use cpc_gateway::{demo_cells, demo_flood_cells, DemoModel};
use cpc_md::EnergyModel;
use cpc_mpi::Middleware;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

const USAGE: &str =
    "usage: chaos [--schedules N] [--layers md,service,transport,disk,sched] [--seed S]\n\
     \x20      [--soak] [--resume] [--out DIR] [--journal FILE] [--ranks P] [--steps N]\n\
     \x20      | --plant | --plant-composed [--corpus DIR] | --replay FILE\n\
     \x20      | --replay-corpus DIR | --straggle-smoke | --abft-smoke";

/// Exit 2 (usage/environment error) with a message — the typed
/// replacement for `expect` on malformed inputs and I/O failures.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(2);
}

/// An MD workload on a uniprocessor GigE cluster: a water box of
/// `side`³ molecules. Side 2 is the chaos workload — large enough to
/// exercise every fault path, small enough that a campaign of hundreds
/// of schedules (each run three ways) finishes in CI time. Side 3 is
/// compute-dominated, for the smokes that need a slow CPU to show: on
/// the comm-bound side-2 box it hides entirely behind the collective
/// incasts (static overhead of a 2x straggler is ~0.3%).
fn workload(side: usize, ranks: usize, steps: usize) -> (cpc_md::System, MdConfig) {
    let mut sys = cpc_md::builder::water_box(side, 3.1);
    cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
    sys.assign_velocities(150.0, 3);
    let cluster = ClusterConfig::uni(ranks, NetworkKind::ScoreGigE);
    let cfg = MdConfig {
        steps,
        ..MdConfig::paper_protocol(EnergyModel::Classic, Middleware::Mpi, cluster)
    };
    (sys, cfg)
}

/// The MD harness over the chaos workload. `armed` false is the
/// pre-ABFT engine the plant self-tests must run against: an armed
/// engine repairs the planted flip and the oracles (correctly) find
/// nothing to catch.
fn make_harness(ranks: usize, steps: usize, armed: bool) -> ChaosHarness {
    let (sys, cfg) = workload(2, ranks, steps);
    let scratch = std::env::temp_dir().join(format!(
        "cpc-chaos-scratch-{}-{}",
        if armed { "armed" } else { "disarmed" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let abft = if armed {
        AbftConfig::armed()
    } else {
        AbftConfig::default()
    };
    ChaosHarness::with_options(sys, cfg, scratch, RecoveryConfig::default(), abft)
        .unwrap_or_else(|e| die(format!("fault-free golden run failed: {e}")))
}

/// The MD fault envelope of a harness's workload (24 atoms: the quick
/// water box; SDC atom indices wrap anyway).
fn md_space(h: &ChaosHarness) -> FaultSpace {
    let cfg = h.cfg();
    FaultSpace::new(
        cfg.cluster.ranks,
        cfg.cluster.nodes(),
        cfg.steps as u64,
        h.golden_wall(),
        24,
    )
}

/// The planted known-bad schedule, drawn from the campaign sampler
/// itself: scan `(seed, 0..)` for the first sampled plan carrying an
/// undetectable-class position flip in the mid-mantissa band — far
/// above the benign bound, far below anything the numerical watchdog
/// notices — then strip the crashes (a crash earns recovery tolerance
/// and makes the corruption non-silent) and every other flip, keeping
/// the sampled loss/straggler/degradation/storage noise for the
/// minimizer to chew through. Deterministic in `seed`.
fn planted_from_space(space: &FaultSpace, seed: u64) -> (u64, FaultPlan) {
    for index in 0u64.. {
        let plan = space.sample(seed, index);
        let Some(flip) = plan.sdc.iter().copied().find(|f| {
            sdc_class(f) == SdcClass::Undetectable
                && f.target == SdcTarget::Positions
                && (40..=50).contains(&f.bit)
        }) else {
            continue;
        };
        let mut planted = plan.clone();
        planted.crashes.clear();
        planted.sdc = vec![flip];
        return (index, planted);
    }
    unreachable!("the sampler draws the gray zone");
}

/// Reads an artifact back (exit 2 when it is unreadable or does not
/// parse): `parse` is the artifact type's `from_json`.
fn read_artifact<T>(path: &Path, parse: fn(&str) -> Result<T, serde_json::Error>) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("cannot read {}: {e}", path.display())));
    parse(&text).unwrap_or_else(|e| die(format!("cannot parse {}: {e}", path.display())))
}

/// Writes one artifact into `dir` (exit 2 when the disk refuses) and
/// returns where it went.
fn write_artifact(dir: &Path, name: &str, json: String) -> PathBuf {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, json) {
        die(format!("cannot write {}: {e}", path.display()));
    }
    path
}

fn plant_mode(out: &Path) -> i32 {
    let h = make_harness(4, 8, false);
    let (index, plan) = planted_from_space(&md_space(&h), 7);
    println!(
        "planted schedule: campaign index {index}, gray flip {:?} plus {} noise event(s)",
        plan.sdc[0],
        flatten(&plan).len() - 1
    );
    let report = h.check(&plan);
    if report.passed() {
        eprintln!("PLANT FAILURE: the known-bad schedule passed every oracle");
        return 1;
    }
    println!(
        "planted schedule caught: {} violation(s), first: {}",
        report.violations.len(),
        report.violations[0]
    );
    let repro = h.minimize_to_reproducer(&plan, 7, index);
    let path = write_artifact(out, "planted_repro.json", repro.to_json());
    println!(
        "minimized {} -> {} event(s) in {} probe(s): {}",
        flatten(&plan).len(),
        repro.events,
        repro.probes,
        path.display()
    );
    if repro.events > 3 {
        eprintln!(
            "PLANT FAILURE: reproducer kept {} events (> 3)",
            repro.events
        );
        return 1;
    }
    // The artifact must replay: parse it back and re-provoke.
    let parsed = read_artifact(&path, Reproducer::from_json);
    let replay = h.check(&parsed.plan);
    if replay.passed() {
        eprintln!("PLANT FAILURE: minimized reproducer no longer fails");
        return 1;
    }
    println!(
        "replay of minimized reproducer still fails: {}",
        replay.violations[0]
    );
    0
}

/// The deterministic artifact the straggle smoke journals: the oracle
/// report plus the overhead comparison the CI log wants to show.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StraggleSmoke {
    slowdown: f64,
    golden_wall: f64,
    adaptive_overhead: f64,
    static_overhead: f64,
    ratio: f64,
    report: ScheduleReport,
}

fn straggle_smoke_mode(out: &Path) -> i32 {
    const SLOWDOWN: f64 = 2.5;
    const RATIO_BOUND: f64 = cpc_charmm::chaos::ADAPTIVE_OVERHEAD_RATIO;
    let (sys, cfg) = workload(3, 4, 8);
    let scratch = std::env::temp_dir().join(format!("cpc-straggle-scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let h = ChaosHarness::new(sys, cfg, &scratch)
        .unwrap_or_else(|e| die(format!("fault-free golden run failed: {e}")));

    let plan = FaultPlan::none().with_straggler(0, SLOWDOWN);
    let report = h.check(&plan);
    let rollbacks = report.recoveries + report.watchdog_trips;
    let mut bad = Vec::new();
    if !report.passed() {
        for v in &report.violations {
            bad.push(format!("oracle violation: {v}"));
        }
    }
    if rollbacks > 0 {
        bad.push(format!("{rollbacks} rollback episode(s); expected none"));
    }
    if report.evictions > 0 {
        bad.push(format!(
            "{} eviction(s); a {SLOWDOWN}x straggler is rebalance territory",
            report.evictions
        ));
    }
    if report.rebalances == 0 {
        bad.push("the ladder never re-cut the partition".to_string());
    }

    // Static-decomposition reference for the CI log: same plan, same
    // checkpointing, rebalancing off. check() already ran this
    // comparison inside the mitigation oracle; repeating it here puts
    // the actual overheads in the artifact.
    let (sys2, cfg2) = workload(3, 4, 8);
    // ABFT armed to match the harness: the overhead ratio must compare
    // like against like.
    let static_fault = FaultConfig::new(plan)
        .with_recovery(RecoveryConfig {
            rebalance: false,
            ..RecoveryConfig::default()
        })
        .with_abft(AbftConfig::armed())
        .with_durable(DurableConfig::new(scratch.join("static-ref")).with_keep(16));
    let st = run_parallel_md_faulty(&sys2, &cfg2, &static_fault)
        .unwrap_or_else(|e| die(format!("static reference run failed: {e}")));
    let adaptive_overhead = report.wall_time / h.golden_wall() - 1.0;
    let static_overhead = st.report.wall_time / h.golden_wall() - 1.0;
    let ratio = adaptive_overhead / static_overhead;
    if static_overhead <= 0.05 {
        bad.push(format!(
            "static overhead {static_overhead:.4} too small — the workload no longer exposes the straggler"
        ));
    } else if ratio >= RATIO_BOUND {
        bad.push(format!(
            "adaptive overhead {adaptive_overhead:.4} is {ratio:.2} x static {static_overhead:.4} (bound {RATIO_BOUND})"
        ));
    }

    let smoke = StraggleSmoke {
        slowdown: SLOWDOWN,
        golden_wall: h.golden_wall(),
        adaptive_overhead,
        static_overhead,
        ratio,
        report,
    };
    let json = serde_json::to_string_pretty(&smoke).expect("smoke verdict serializes");
    let path = write_artifact(out, "straggle_smoke.json", json);
    println!(
        "straggle smoke: {SLOWDOWN}x persistent straggler, {} rebalance(s), \
         {rollbacks} rollback(s), overhead {adaptive_overhead:.4} adaptive vs \
         {static_overhead:.4} static (ratio {ratio:.2}, bound {RATIO_BOUND})",
        smoke.report.rebalances
    );
    println!("artifact: {}", path.display());
    if bad.is_empty() {
        0
    } else {
        for b in &bad {
            eprintln!("STRAGGLE SMOKE FAILURE: {b}");
        }
        1
    }
}

/// Wall-clock budget for arming the ABFT checksums on the
/// compute-dominated workload: at most 5% over the disarmed engine.
const ABFT_OVERHEAD_BUDGET: f64 = 0.05;

/// The deterministic artifact the ABFT smoke journals.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AbftSmoke {
    seed: u64,
    planted_index: u64,
    armed_report: ScheduleReport,
    disarmed_violations: usize,
    repro_events: usize,
    plain_wall: f64,
    armed_wall: f64,
    overhead: f64,
    overhead_budget: f64,
}

fn abft_smoke_mode(out: &Path) -> i32 {
    let mut bad = Vec::new();

    // (a) Armed engine vs the planted gray-zone schedule: every oracle
    // holds because the checksums catch the flip and repair it.
    let armed = make_harness(4, 8, true);
    let (index, plan) = planted_from_space(&md_space(&armed), 7);
    println!(
        "planted schedule: campaign index {index}, gray flip {:?} plus {} noise event(s)",
        plan.sdc[0],
        flatten(&plan).len() - 1
    );
    let armed_report = armed.check(&plan);
    if !armed_report.passed() {
        for v in &armed_report.violations {
            bad.push(format!("armed engine violated an oracle: {v}"));
        }
    }
    if armed_report.abft_detections == 0 {
        bad.push("armed engine raised no corruption verdict for the planted flip".to_string());
    }
    println!(
        "armed: {} detection(s), {} repair(s), {} watchdog trip(s), deviation {:e}",
        armed_report.abft_detections,
        armed_report.abft_recomputes,
        armed_report.watchdog_trips,
        armed_report.max_deviation
    );

    // (b) Disarmed engine vs the same schedule: the corruption slips
    // through, an oracle catches the divergence, and ddmin shrinks the
    // schedule to the flip.
    let disarmed = make_harness(4, 8, false);
    let disarmed_report = disarmed.check(&plan);
    if disarmed_report.passed() {
        bad.push("disarmed engine passed: the planted flip is not actually harmful".to_string());
    }
    let repro = disarmed.minimize_to_reproducer(&plan, 7, index);
    write_artifact(out, "abft_smoke_repro.json", repro.to_json());
    println!(
        "disarmed: {} violation(s), minimized to {} event(s)",
        disarmed_report.violations.len(),
        repro.events
    );
    if repro.events > 3 {
        bad.push(format!("reproducer kept {} events (> 3)", repro.events));
    }

    // (c) Overhead gate on the compute-dominated workload: arming the
    // checksums must cost <= 5% wall clock and change no physics bit.
    let (sys, cfg) = workload(3, 4, 8);
    let plain = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default())
        .unwrap_or_else(|e| die(format!("disarmed reference run failed: {e}")));
    let armed_run = run_parallel_md_faulty(
        &sys,
        &cfg,
        &FaultConfig::default().with_abft(AbftConfig::armed()),
    )
    .unwrap_or_else(|e| die(format!("armed reference run failed: {e}")));
    let overhead = armed_run.report.wall_time / plain.report.wall_time - 1.0;
    println!(
        "overhead: armed {:.6} s vs plain {:.6} s = {:.2}% (budget {:.0}%)",
        armed_run.report.wall_time,
        plain.report.wall_time,
        100.0 * overhead,
        100.0 * ABFT_OVERHEAD_BUDGET
    );
    if overhead > ABFT_OVERHEAD_BUDGET {
        bad.push(format!(
            "ABFT overhead {:.4} exceeds budget {ABFT_OVERHEAD_BUDGET}",
            overhead
        ));
    }
    if armed_run.report.final_positions != plain.report.final_positions
        || armed_run.report.final_velocities != plain.report.final_velocities
    {
        bad.push("arming ABFT changed fault-free physics".to_string());
    }
    if armed_run.abft_detections != 0 {
        bad.push(format!(
            "{} false positive(s) on the fault-free workload",
            armed_run.abft_detections
        ));
    }

    let smoke = AbftSmoke {
        seed: 7,
        planted_index: index,
        armed_report,
        disarmed_violations: disarmed_report.violations.len(),
        repro_events: repro.events,
        plain_wall: plain.report.wall_time,
        armed_wall: armed_run.report.wall_time,
        overhead,
        overhead_budget: ABFT_OVERHEAD_BUDGET,
    };
    let json = serde_json::to_string_pretty(&smoke).expect("smoke verdict serializes");
    let path = write_artifact(out, "abft_smoke.json", json);
    println!("artifact: {}", path.display());
    if bad.is_empty() {
        0
    } else {
        for b in &bad {
            eprintln!("ABFT SMOKE FAILURE: {b}");
        }
        1
    }
}

fn replay_mode(file: &str) -> i32 {
    let repro = read_artifact(Path::new(file), Reproducer::from_json);
    // Replay under the engine that produced the artifact: a disarmed
    // reproducer replayed armed would be repaired, not reproduced.
    if !repro.abft {
        println!("reproducer was minimized with ABFT disarmed; replaying disarmed");
    }
    let h = make_harness(repro.ranks, repro.steps, repro.abft);
    let report = h.check(&repro.plan);
    if report.passed() {
        println!("reproducer did NOT reproduce: every oracle held");
        1
    } else {
        println!("reproduced {} violation(s):", report.violations.len());
        for v in &report.violations {
            println!("  - {v}");
        }
        0
    }
}

/// Cells per campaign: small enough that hundreds of schedules (each
/// a reference run plus every faulted incarnation) finish in CI time,
/// large enough that every sampled kill, tear and lease index lands.
const COMPOSED_CELLS: u64 = 6;
/// Queue journal shards per campaign (the gateway default), which
/// bounds the service sampler's torn-shard targets.
const SHARDS: usize = 4;

/// Probes the fault-free composed campaign for its disk-op horizon
/// (the index space disk faults are drawn from), then assembles the
/// joint five-layer envelope around the given MD envelope.
fn composed_space(md: FaultSpace) -> ComposedFaultSpace {
    let cells = demo_cells(COMPOSED_CELLS);
    let probe = run_composed_chaos(
        || DemoModel,
        &cells,
        "demo",
        &ComposedPlan::quiet(2),
        &demo_flood_cells,
        None,
    )
    .unwrap_or_else(|e| die(format!("fault-free composed probe failed: {e}")));
    if !probe.passed() {
        for v in &probe.violations {
            eprintln!("  - {v}");
        }
        die("fault-free composed probe failed its own oracles");
    }
    ComposedFaultSpace {
        md,
        service: ServiceFaultSpace::new(COMPOSED_CELLS as usize, SHARDS),
        transport: TransportFaultSpace::new(COMPOSED_CELLS as usize),
        disk: DiskFaultSpace::new(probe.ledger.disk.disk.ops),
        sched: SchedFaultSpace::new(COMPOSED_CELLS as usize),
    }
}

/// Runs one composed schedule through the conductor, wiring the MD
/// layer to `harness` when one is supplied (campaigns and corpus
/// entries that never arm the MD layer skip the engine entirely).
fn run_composed(
    harness: Option<&ChaosHarness>,
    cells: &str,
    plan: &ComposedPlan,
) -> ComposedChaosReport {
    let mut md_check = harness.map(|h| move |p: &FaultPlan| h.check(p));
    let md_check = md_check
        .as_mut()
        .map(|check| check as &mut dyn FnMut(&FaultPlan) -> ScheduleReport);
    run_composed_chaos(
        || DemoModel,
        cells,
        "demo",
        plan,
        &demo_flood_cells,
        md_check,
    )
    .unwrap_or_else(|e| die(format!("composed campaign I/O failure: {e}")))
}

/// The one failure-to-reproducer path: shrinks a failing composed
/// schedule layer-first against the conductor and packages the minimal
/// plan, the verdict it still provokes and the MD workload replay
/// needs as a corpus entry that must keep failing.
fn cross_reproducer(
    harness: Option<&ChaosHarness>,
    (ranks, steps, abft): (usize, usize, bool),
    cells: &str,
    plan: &ComposedPlan,
    (seed, index): (u64, u64),
) -> CrossReproducer {
    let (min_plan, probes) =
        minimize_composed(plan, |cand| !run_composed(harness, cells, cand).passed());
    let min_report = run_composed(harness, cells, &min_plan);
    let survivors: Vec<&str> = min_plan.armed_layers().iter().map(|l| l.name()).collect();
    println!(
        "minimized {} -> {} event(s) in layer(s) [{}] in {probes} probe(s)",
        plan.events(),
        min_plan.events(),
        survivors.join(", ")
    );
    CrossReproducer {
        seed,
        index,
        cells: COMPOSED_CELLS as usize,
        ranks,
        nodes: ranks, // the workload is a uniprocessor cluster
        steps,
        abft,
        expect_fail: true,
        events: min_plan.events(),
        probes,
        violations: min_report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect(),
        plan: min_plan,
    }
}

/// Accumulates pairwise interaction coverage: a schedule covers the
/// layer pair `(a, b)` when both layers carried armed events.
fn cover_pairs(pairs: &mut [[u64; 5]; 5], events: &[usize; 5]) {
    for a in 0..5 {
        for b in (a + 1)..5 {
            if events[a] > 0 && events[b] > 0 {
                pairs[a][b] += 1;
            }
        }
    }
}

/// Composed plant self-test (`--plant-composed`): proves the
/// cross-layer oracles and minimizer catch a known-bad composed
/// schedule, then seeds the replayable reproducer corpus with a
/// regression pin (must still fail) and a determinism pin (must still
/// pass, byte-identical verdict).
fn plant_composed_mode(corpus: &Path) -> i32 {
    if let Err(e) = std::fs::create_dir_all(corpus) {
        die(format!("cannot create {}: {e}", corpus.display()));
    }
    let cells = demo_cells(COMPOSED_CELLS);

    // (a) Regression pin: the gray-zone MD flip the single-layer plant
    // uses, checked with ABFT disarmed so it is actually harmful —
    // buried under sampled noise in the other four layers, so the
    // minimizer has whole layers to discard before it can shrink.
    let h = make_harness(4, 8, false);
    let space = composed_space(md_space(&h));
    let (index, planted_md) = planted_from_space(&space.md, 7);
    let mut plan = space.sample(7, index);
    plan.md = planted_md;
    println!(
        "planted composed schedule: campaign index {index}, gray flip {:?} buried under \
         {} noise event(s) across the other four layers",
        plan.md.sdc[0],
        plan.events() - 1
    );
    let report = run_composed(Some(&h), &cells, &plan);
    if report.passed() {
        eprintln!("PLANT FAILURE: the known-bad composed schedule passed every oracle");
        return 1;
    }
    println!(
        "caught: {} violation(s), first: {}",
        report.violations.len(),
        report.violations[0]
    );
    let repro = cross_reproducer(Some(&h), (4, 8, false), &cells, &plan, (7, index));
    if repro.violations.is_empty() {
        eprintln!("PLANT FAILURE: minimized reproducer no longer fails");
        return 1;
    }
    if repro.events > 10 {
        eprintln!(
            "PLANT FAILURE: reproducer kept {} events (> 10)",
            repro.events
        );
        return 1;
    }
    let path = write_artifact(corpus, "planted_cross.json", repro.to_json());
    println!("regression pin: {}", path.display());

    // The artifact must replay with a byte-identical verdict.
    let parsed = read_artifact(&path, CrossReproducer::from_json);
    let replayed = run_composed(Some(&h), &cells, &parsed.plan);
    let rendered: Vec<String> = replayed.violations.iter().map(|v| v.to_string()).collect();
    if replayed.passed() || rendered != repro.violations {
        eprintln!("PLANT FAILURE: reproducer replay diverged from the recorded verdict");
        return 1;
    }
    println!("replay of the regression pin still fails with a byte-identical verdict");

    // (b) Determinism pin: a passing sampled schedule with all five
    // layers armed and ABFT armed; replay must pass with an empty,
    // byte-identical verdict.
    let armed = make_harness(4, 8, true);
    let pin_plan = composed_space(md_space(&armed)).sample(7, 0);
    let pin_report = run_composed(Some(&armed), &cells, &pin_plan);
    if !pin_report.passed() {
        eprintln!("PLANT FAILURE: the determinism-pin schedule fails its oracles:");
        for v in &pin_report.violations {
            eprintln!("  - {v}");
        }
        return 1;
    }
    let pin = CrossReproducer {
        seed: 7,
        index: 0,
        cells: COMPOSED_CELLS as usize,
        ranks: armed.cfg().cluster.ranks,
        nodes: armed.cfg().cluster.nodes(),
        steps: 8,
        abft: true,
        expect_fail: false,
        events: pin_plan.events(),
        probes: 0,
        violations: Vec::new(),
        plan: pin_plan,
    };
    let path = write_artifact(corpus, "determinism_pin.json", pin.to_json());
    println!("determinism pin: {}", path.display());
    0
}

/// Corpus replay (`--replay-corpus DIR`): re-runs every reproducer in
/// the checked-in corpus and holds each to its recorded expectation —
/// regression pins must still fail, determinism pins must still pass,
/// and in both cases the rendered verdict must be byte-identical to
/// the one recorded in the artifact.
fn replay_corpus_mode(dir: &Path) -> i32 {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die(format!("cannot read corpus {}: {e}", dir.display())));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        die(format!("corpus {} holds no reproducers", dir.display()));
    }
    let mut harnesses: HashMap<(usize, usize, bool), ChaosHarness> = HashMap::new();
    let mut bad = 0usize;
    for path in &paths {
        let repro = read_artifact(path, CrossReproducer::from_json);
        let cells = demo_cells(repro.cells as u64);
        let report = if repro.plan.armed(Layer::Md) {
            let h = harnesses
                .entry((repro.ranks, repro.steps, repro.abft))
                .or_insert_with(|| make_harness(repro.ranks, repro.steps, repro.abft));
            run_composed(Some(h), &cells, &repro.plan)
        } else {
            run_composed(None, &cells, &repro.plan)
        };
        let failed = !report.passed();
        let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if failed != repro.expect_fail {
            println!(
                "{name}: MISMATCH — expected {}, got {}",
                if repro.expect_fail { "fail" } else { "pass" },
                if failed { "fail" } else { "pass" }
            );
            bad += 1;
        } else if rendered != repro.violations {
            println!("{name}: NONDETERMINISTIC — verdict diverged from the recorded one");
            bad += 1;
        } else {
            println!(
                "{name}: ok ({} as recorded, {} armed event(s))",
                if failed { "fails" } else { "passes" },
                repro.plan.events()
            );
        }
    }
    println!(
        "replayed {} reproducer(s), {} mismatch(es)",
        paths.len(),
        bad
    );
    if bad == 0 {
        0
    } else {
        1
    }
}

/// One journaled campaign verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Verdict {
    /// Campaign seed.
    seed: u64,
    /// Schedule index within the campaign.
    index: u64,
    /// The layer mask the schedule ran under, as `--layers` spells it.
    layers: String,
    /// Rendered violations (empty: the full oracle union held).
    violations: Vec<String>,
    /// The unified cross-layer book the oracles checked (its
    /// `layer_events` say which layers the schedule exercised).
    ledger: CrossLedger,
}

/// The faults one schedule actually delivered, as `(layer, counter,
/// count)` rows in a fixed order: the classes each layer's sampler
/// draws often enough that a 100-schedule window reading 0 means the
/// class stopped landing, which CI greps for.
fn delivered(l: &CrossLedger) -> Vec<(Layer, &'static str, usize)> {
    let md = l.md.as_ref();
    let (svc, gw, disk, sched) = (&l.service, &l.gateway, &l.disk, &l.sched);
    vec![
        (Layer::Md, "events", md.map_or(0, |m| m.events)),
        (Layer::Md, "crashed_ranks", md.map_or(0, |m| m.crashed)),
        (Layer::Md, "sdc_events", md.map_or(0, |m| m.sdc_events)),
        (Layer::Service, "kills", svc.kills),
        (Layer::Service, "destroyed_lines", svc.destroyed_results),
        (Layer::Service, "dropped_lines", svc.dropped_lines),
        (Layer::Service, "stale_presented", svc.stale_presented),
        (Layer::Service, "stale_rejected", svc.stale_rejected),
        (Layer::Service, "reclaimed_leases", svc.reclaimed_leases),
        (Layer::Transport, "kills", gw.kills),
        (Layer::Transport, "rejected", gw.rejected),
        (Layer::Transport, "shed", gw.shed),
        (Layer::Disk, "restarts", disk.restarts),
        (Layer::Disk, "enospc_lifts", disk.enospc_lifts),
        (Layer::Disk, "io_retries", disk.io_retries),
        (Layer::Disk, "power_cuts", disk.disk.power_losses as usize),
        (
            Layer::Disk,
            "enospc_failures",
            disk.disk.enospc_failures as usize,
        ),
        (Layer::Sched, "panics_injected", sched.panics_injected),
        (Layer::Sched, "panics_caught", sched.panics_caught),
        (Layer::Sched, "pauses", sched.pauses_taken),
        // A stale lease is the queue's to present and reject, whichever
        // layer armed it: the sched rows read the service book's column.
        (Layer::Sched, "stale_presented", svc.stale_presented),
        (Layer::Sched, "stale_rejected", svc.stale_rejected),
    ]
}

/// What the checked schedules delivered and cost, summed over a
/// campaign: [`delivered`] row by row, the execution book's two
/// sides, and the pairwise interaction coverage.
#[derive(Default)]
struct Totals {
    delivered: Vec<(Layer, &'static str, usize)>,
    executed: usize,
    licensed: usize,
    pairs: [[u64; 5]; 5],
}

impl Totals {
    fn add(&mut self, l: &CrossLedger) {
        let rows = delivered(l);
        if self.delivered.is_empty() {
            self.delivered = rows;
        } else {
            for (sum, row) in self.delivered.iter_mut().zip(rows) {
                sum.2 += row.2;
            }
        }
        self.executed += l.executed_true;
        self.licensed += l.exec_allowance;
        cover_pairs(&mut self.pairs, &l.layer_events);
    }

    /// One `delivered[layer]: k=v ...` line per armed layer and the
    /// execution book's slack.
    fn print(&self, mask: LayerMask) {
        for layer in LAYERS.into_iter().filter(|&l| mask.get(l)) {
            let counters: Vec<String> = self
                .delivered
                .iter()
                .filter(|row| row.0 == layer)
                .map(|row| format!("{}={}", row.1, row.2))
                .collect();
            println!("delivered[{}]: {}", layer.name(), counters.join(" "));
        }
        let slack = self.licensed.saturating_sub(self.executed);
        println!(
            "execution book: {} executed within {} licensed (slack {slack}, {:.2}% of executed)",
            self.executed,
            self.licensed,
            100.0 * slack as f64 / self.executed.max(1) as f64
        );
    }
}

/// What one campaign invocation was asked to do.
struct Campaign {
    out: PathBuf,
    journal: Option<PathBuf>,
    seed: u64,
    mask: LayerMask,
    schedules: u64,
    soak: bool,
    resume: bool,
    ranks: usize,
    steps: usize,
}

/// The campaign: schedules `0..N` (or unbounded under `--soak`)
/// sampled from `(seed, index)`, projected through the layer mask,
/// driven through the conductor and checked by the full oracle union;
/// failures minimized layer-first into cross reproducers.
fn campaign_mode(c: &Campaign) -> i32 {
    let (seed, mask) = (c.seed, c.mask);
    let layers = mask.to_string();
    let journal_path = c
        .journal
        .clone()
        .unwrap_or_else(|| c.out.join("chaos.jsonl"));
    let (mut journal, prior) =
        open_verdict_journal::<Verdict, _>("chaos", &journal_path, c.resume, |v| (v.seed, v.index));
    let prior: Vec<Verdict> = prior.into_iter().filter(|v| v.seed == seed).collect();
    if let Some(other) = prior.iter().find(|v| v.layers != layers) {
        die(format!(
            "{} records schedule {} of seed {seed} under --layers {}; resuming it under \
             --layers {layers} would skip indices checked with other layers armed",
            journal_path.display(),
            other.index,
            other.layers
        ));
    }
    let done: HashSet<u64> = prior.iter().map(|v| v.index).collect();
    let mut failures: Vec<u64> = prior
        .iter()
        .filter(|v| !v.violations.is_empty())
        .map(|v| v.index)
        .collect();
    let mut totals = Totals::default();
    for v in &prior {
        totals.add(&v.ledger);
    }

    // The MD engine is built only when its layer is armed; masked, its
    // sampled schedule is never run and any envelope will do.
    let harness = mask.md.then(|| make_harness(c.ranks, c.steps, true));
    let space = composed_space(harness.as_ref().map_or_else(
        || FaultSpace::new(c.ranks, c.ranks, c.steps as u64, 1.0, 24),
        md_space,
    ));
    let cells = demo_cells(COMPOSED_CELLS);
    println!(
        "chaos campaign: seed {seed}, {}, layers [{layers}] armed against one \
         {COMPOSED_CELLS}-cell campaign{}",
        if c.soak {
            "unbounded soak".to_string()
        } else {
            format!("{} schedules", c.schedules)
        },
        match &harness {
            Some(h) => format!(
                "; MD workload p = {}, {} steps, horizon {:.4} s",
                c.ranks,
                c.steps,
                h.golden_wall()
            ),
            None => String::new(),
        }
    );

    let mut checked = 0u64;
    for index in 0u64.. {
        if !c.soak && index >= c.schedules {
            break;
        }
        if done.contains(&index) {
            continue;
        }
        let plan = space.sample(seed, index).masked(mask);
        let report = run_composed(harness.as_ref(), &cells, &plan);
        checked += 1;
        totals.add(&report.ledger);
        let mut verdict = Verdict {
            seed,
            index,
            layers: layers.clone(),
            violations: report.violations.iter().map(|v| v.to_string()).collect(),
            ledger: report.ledger,
        };
        // How often a worker reached its pause point describes this
        // machine's scheduler under this load, not the campaign: no
        // oracle reads it, and journaled it would make a rerun's `cmp`
        // depend on what else the host is doing.
        verdict.ledger.sched.pauses_taken = 0;
        if let Err(e) = journal.append(&verdict) {
            die(format!("cannot journal verdict {index}: {e}"));
        }
        let ledger = &verdict.ledger;
        if !verdict.violations.is_empty() {
            println!(
                "schedule {index}: {} VIOLATION(S)",
                verdict.violations.len()
            );
            for v in &verdict.violations {
                println!("  - {v}");
            }
            let repro = cross_reproducer(
                harness.as_ref(),
                (c.ranks, c.steps, true),
                &cells,
                &plan,
                (seed, index),
            );
            let name = format!("cross-repro-{index:05}.json");
            let path = write_artifact(&c.out, &name, repro.to_json());
            println!("reproducer: {}", path.display());
            failures.push(index);
            if c.soak {
                break;
            }
        } else if (index + 1).is_multiple_of(10) {
            println!(
                "schedule {index}: ok ({} incarnation(s), {} kill(s), executed {} within license {})",
                ledger.gateway.incarnations,
                ledger.gateway.kills,
                ledger.executed_true,
                ledger.exec_allowance
            );
        }
    }

    totals.print(mask);
    let mut missing = Vec::new();
    if mask.armed() >= 2 {
        let mut coverage = Vec::new();
        for (a, first) in LAYERS.into_iter().enumerate() {
            for (b, second) in LAYERS.into_iter().enumerate().skip(a + 1) {
                if mask.get(first) && mask.get(second) {
                    let pair = format!("{}x{}", first.name(), second.name());
                    coverage.push(format!("{pair} {}", totals.pairs[a][b]));
                    if totals.pairs[a][b] == 0 {
                        missing.push(pair);
                    }
                }
            }
        }
        println!("pairwise interaction coverage: {}", coverage.join(", "));
    }
    println!(
        "checked {checked} fresh schedule(s) ({} total), {} violation(s)",
        done.len() as u64 + checked,
        failures.len()
    );
    if !failures.is_empty() {
        failures.sort_unstable();
        failures.dedup();
        println!("failing schedules: {failures:?}");
        return 1;
    }
    if done.len() as u64 + checked > 0 && !missing.is_empty() {
        println!(
            "COVERAGE FAILURE: pairwise interaction(s) never exercised: {}",
            missing.join(", ")
        );
        return 1;
    }
    println!("the full oracle union held on every schedule");
    0
}

fn main() {
    let mut args = Args::parse("chaos", USAGE);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "results/chaos".to_string());
    let replay = args.value("--replay");
    let replay_corpus = args.value("--replay-corpus");
    let corpus = args
        .value("--corpus")
        .unwrap_or_else(|| "reproducers".to_string());
    let plant = args.flag("--plant");
    let plant_composed = args.flag("--plant-composed");
    let straggle_smoke = args.flag("--straggle-smoke");
    let abft_smoke = args.flag("--abft-smoke");
    let schedules: Option<u64> = args.parsed("--schedules", "an integer schedule count");
    let mask: LayerMask = args
        .parsed(
            "--layers",
            "a comma-separated subset of md,service,transport,disk,sched",
        )
        .unwrap_or_default();
    let seed: u64 = args.parsed("--seed", "an integer seed").unwrap_or(7);
    let ranks: usize = args.parsed("--ranks", "an integer rank count").unwrap_or(4);
    let steps: usize = args.parsed("--steps", "an integer step count").unwrap_or(8);
    let soak = args.flag("--soak");
    let resume = args.flag("--resume");
    let journal = args.value("--journal").map(PathBuf::from);
    args.exclusive(&[
        ("--schedules", schedules.is_some()),
        ("--plant", plant),
        ("--plant-composed", plant_composed),
        ("--replay", replay.is_some()),
        ("--replay-corpus", replay_corpus.is_some()),
        ("--straggle-smoke", straggle_smoke),
        ("--abft-smoke", abft_smoke),
    ]);
    args.finish();

    let out = PathBuf::from(out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        die(format!("cannot create {}: {e}", out.display()));
    }

    if let Some(file) = replay {
        std::process::exit(replay_mode(&file));
    }
    if let Some(dir) = replay_corpus {
        std::process::exit(replay_corpus_mode(Path::new(&dir)));
    }
    if plant {
        std::process::exit(plant_mode(&out));
    }
    if plant_composed {
        std::process::exit(plant_composed_mode(Path::new(&corpus)));
    }
    if straggle_smoke {
        std::process::exit(straggle_smoke_mode(&out));
    }
    if abft_smoke {
        std::process::exit(abft_smoke_mode(&out));
    }
    std::process::exit(campaign_mode(&Campaign {
        out,
        journal,
        seed,
        mask,
        schedules: schedules.unwrap_or(50),
        soak,
        resume,
        ranks,
        steps,
    }));
}
