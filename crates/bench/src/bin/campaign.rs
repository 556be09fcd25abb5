//! Runs the complete reproduction campaign and writes a self-contained
//! artifact directory (figures, findings, factor effects, raw JSON,
//! paper-vs-measured table).
//!
//! ```text
//! cargo run --release -p cpc-bench --bin campaign \
//!     [--quick] [--out DIR] [--resume] [--max-cells N] \
//!     [--workers N] [--shards N] [--kill-after N] [--cache DIR]
//! ```
//!
//! Every completed measurement cell is journaled to `DIR/journal.jsonl`
//! as it finishes. A campaign killed mid-sweep (or stopped by
//! `--max-cells N`, which exits with code 3 after N fresh cells) can be
//! re-run with `--resume`: finished cells are skipped and the final
//! manifest is identical to an uninterrupted run's.
//!
//! Any of `--workers`, `--shards`, `--threads`, `--kill-after` or
//! `--cache` selects **service mode**: the full factorial of
//! measurement cells is driven through the crash-safe [`JobService`] —
//! a leased, sharded work queue plus a content-addressed result cache —
//! before the figures are rendered from the journal. `--kill-after N`
//! kills the service mid-commit after its N-th fresh cell (exit 3);
//! re-running with `--resume` recovers the queue, reclaims the dead
//! incarnation's leases, and produces byte-identical artifacts.
//! `--cache DIR` points the result cache at a shared directory so
//! identical cells flow between campaigns without re-simulation.
//! `--threads N` executes cells on an N-thread pool (`cpc-pool`);
//! results still commit in task-index order, so the journal is
//! byte-identical to a `--threads 1` (or plain serial) run.
use cpc_bench::attach_journal;
use cpc_bench::cli::Args;
use cpc_md::{EnergyModel, System};
use cpc_workload::factors::PAPER_PROC_COUNTS;
use cpc_workload::figures::{Lab, EXIT_CELL_BUDGET};
use cpc_workload::full_factorial;
use cpc_workload::report::run_campaign;
use cpc_workload::runner::measure_with_model;
use cpc_workload::service::{task_key, JobService, KillPoint, ServiceConfig};
use cpc_workload::Measurement;
use std::path::Path;

const USAGE: &str = "usage: campaign [--quick] [--out DIR] [--resume] [--max-cells N]\n\
     \x20      [--workers N] [--shards N] [--threads N] [--kill-after N] [--cache DIR]";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(2);
}

/// Where this process's kernel evaluations went (stderr only: every
/// artifact stays byte-identical whatever the memo did).
fn report_kernel_memo() {
    eprintln!("{}", cpc_charmm::KernelMemo::global().stats());
}

/// Drives the full factorial through the crash-safe job service. On a
/// scheduled kill the process exits with [`EXIT_CELL_BUDGET`], exactly
/// like an exhausted `--max-cells` budget; otherwise the queue is
/// drained and `DIR/journal.jsonl` holds every cell in task order,
/// ready for the figure render.
#[allow(clippy::too_many_arguments)]
fn run_service(
    out: &str,
    system: &System,
    steps: usize,
    model: EnergyModel,
    workers: usize,
    shards: usize,
    threads: usize,
    kill_after: Option<usize>,
    cache_dir: Option<String>,
    resume: bool,
) {
    let mut cfg = ServiceConfig::new(out, format!("campaign steps={steps} model={model:?}"));
    cfg.workers = workers.max(1);
    cfg.shards = shards.max(1);
    cfg.kill = kill_after.map(|n| (n, KillPoint::MidCommit));
    cfg.cache = cache_dir.map(Into::into);
    if !resume {
        // A fresh campaign: clear the queue and the journal. The cache
        // survives on purpose — it is content-addressed, so serving a
        // prior campaign's identical cells is sound.
        let _ = std::fs::remove_file(cfg.journal_path());
        for shard in 0..cfg.shards {
            let _ = std::fs::remove_file(cfg.dir.join(format!("queue-{shard:02}.jsonl")));
        }
    }

    let cells = full_factorial(&PAPER_PROC_COUNTS);
    let key_of = |m: &Measurement| task_key(&m.point).expect("experiment point serializes");
    let mut service = JobService::<Measurement>::open(cfg, key_of)
        .unwrap_or_else(|e| die(format!("cannot open job service in {out}: {e}")));
    let exec = |point: &cpc_workload::factors::ExperimentPoint| {
        let m = measure_with_model(system, *point, steps, model);
        let elapsed = m.energy_time();
        (m, elapsed)
    };
    let outcome = if threads > 1 {
        service.run_pooled(&cells, &cpc_pool::Pool::new(threads), exec)
    } else {
        service.run(&cells, exec)
    }
    .unwrap_or_else(|e| die(format!("job service failed: {e}")));

    println!(
        "service: {}/{} cells durable ({} executed, {} cache hit(s), {} pre-seeded)",
        outcome.completed,
        outcome.total,
        outcome.executed,
        outcome.cache_hits,
        outcome.journal_preseeded
    );
    if outcome.reclaimed > 0 || outcome.dropped_lines > 0 || outcome.duplicates_dropped > 0 {
        println!(
            "service: recovered {} dead lease(s), {} torn line(s), {} duplicate record(s)",
            outcome.reclaimed, outcome.dropped_lines, outcome.duplicates_dropped
        );
    }
    if outcome.killed {
        eprintln!(
            "service killed mid-commit after {} fresh cell(s); \
             re-run with --resume to continue",
            outcome.executed
        );
        report_kernel_memo();
        std::process::exit(EXIT_CELL_BUDGET);
    }
    if !outcome.drained || outcome.abandoned > 0 {
        eprintln!(
            "service did not drain: {} cell(s) dead-lettered",
            outcome.abandoned
        );
        report_kernel_memo();
        std::process::exit(1);
    }
}

fn main() {
    let mut args = Args::parse("campaign", USAGE);
    let quick = args.flag("--quick");
    let resume = args.flag("--resume");
    let out = args.value("--out").unwrap_or_else(|| "results".to_string());
    let max_cells: Option<usize> = args.parsed("--max-cells", "an integer cell count");
    let workers: Option<usize> = args.parsed("--workers", "an integer worker count");
    let shards: Option<usize> = args.parsed("--shards", "an integer shard count");
    let threads: Option<usize> = args.parsed("--threads", "an integer thread count");
    let kill_after: Option<usize> = args.parsed("--kill-after", "an integer fresh-cell count");
    let cache_dir: Option<String> = args.value("--cache");
    args.finish();
    let service_mode = workers.is_some()
        || shards.is_some()
        || threads.is_some()
        || kill_after.is_some()
        || cache_dir.is_some();

    let system = if quick {
        cpc_workload::runner::quick_system()
    } else {
        cpc_workload::runner::myoglobin_shared().clone()
    };
    let (steps, model) = if quick {
        (
            2,
            EnergyModel::Pme(cpc_workload::runner::quick_pme_params()),
        )
    } else {
        (
            cpc_workload::runner::PAPER_STEPS,
            EnergyModel::Pme(cpc_workload::runner::paper_pme_params()),
        )
    };

    if let Err(e) = std::fs::create_dir_all(&out) {
        die(format!("cannot create {out}: {e}"));
    }
    if service_mode {
        run_service(
            &out,
            &system,
            steps,
            model,
            workers.unwrap_or(1),
            shards.unwrap_or(4),
            threads.unwrap_or(1).max(1),
            kill_after,
            cache_dir,
            resume,
        );
    }

    let mut lab = if quick {
        Lab::custom(&system, steps, model)
    } else {
        Lab::paper(&system)
    };
    let journal_path = Path::new(&out).join("journal.jsonl");
    let Some(journal_str) = journal_path.to_str() else {
        die(format!(
            "journal path {} is not valid UTF-8",
            journal_path.display()
        ));
    };
    // After a drained service run the journal holds every cell: the
    // render below re-measures nothing, it only reads the artifact.
    attach_journal(&mut lab, journal_str, resume || service_mode);
    if let Some(cells) = max_cells {
        lab.set_cell_budget(cells);
    }

    let artifacts = run_campaign(&mut lab, &out)
        .unwrap_or_else(|e| die(format!("cannot write campaign artifacts under {out}: {e}")));
    println!(
        "campaign complete: {}/{} findings hold",
        artifacts.findings_held, artifacts.findings_total
    );
    println!("artifacts in {}:", artifacts.dir.display());
    for p in [
        &artifacts.figures,
        &artifacts.findings,
        &artifacts.factor_effects,
        &artifacts.comparison,
        &artifacts.measurements,
    ] {
        println!("  {}", p.display());
    }
    println!("  {}", journal_path.display());
    report_kernel_memo();
}
