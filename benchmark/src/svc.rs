//! `svc_cold` and `svc_warm`: back-to-back 48-cell quick campaigns
//! through `JobService::run` — cold (fresh directory and cache each
//! time) or against one shared warmed cache. Both run over the
//! in-memory filesystem of [`crate::memfs`], whose header says why.

use crate::common::{draw_counts, timed_setup, Ctx, Outcome, CAMPAIGN_COUNTS};
use crate::memfs::MemFs;
use crate::stats::{median, quartiles};
use crate::trace::SpanId;
use cpc_cluster::SplitMix64;
use cpc_md::{EnergyModel, System};
use cpc_vfs::{Fs, SharedFs};
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::full_factorial;
use cpc_workload::journal::Journal;
use cpc_workload::runner::{measure_with_model, quick_pme_params, quick_system};
use cpc_workload::service::{task_key, ServiceOutcome};
use cpc_workload::{JobService, Measurement, ServiceConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// MD steps of a quick cell (the `--quick` protocol of `campaign` and
/// `serve`).
pub const QUICK_STEPS: usize = 2;

pub fn quick_model() -> EnergyModel {
    EnergyModel::Pme(quick_pme_params())
}

/// The protocol string `campaign --quick` and `serve --quick` fold
/// into their cache keys.
pub fn quick_protocol() -> String {
    format!("campaign steps={QUICK_STEPS} model={:?}", quick_model())
}

pub fn key_of(m: &Measurement) -> String {
    key_of_point(&m.point)
}

/// One quick cell: what `campaign`'s and `serve`'s `exec` do.
pub fn exec_quick(system: &System, point: &ExperimentPoint) -> (Measurement, f64) {
    let m = measure_with_model(system, *point, QUICK_STEPS, quick_model());
    let elapsed = m.energy_time();
    (m, elapsed)
}

/// Cells per campaign: 12 platform cells x 4 processor counts.
pub const CAMPAIGN_CELLS: usize = 12 * CAMPAIGN_COUNTS.len();

pub fn key_of_point(p: &ExperimentPoint) -> String {
    task_key(p).expect("an experiment point serializes")
}

/// A finished campaign: the service (for its results), what it
/// reported, and the seconds `open` + `run` took.
pub struct CampaignRun {
    pub service: JobService<Measurement>,
    pub outcome: ServiceOutcome,
    pub secs: f64,
}

/// Runs one campaign directly through `JobService` in `dir` on `fs`,
/// executing cells with `exec`.
pub fn run_campaign(
    fs: SharedFs,
    dir: &Path,
    cache: Option<&Path>,
    tasks: &[ExperimentPoint],
    exec: impl FnMut(&ExperimentPoint) -> (Measurement, f64),
) -> Result<CampaignRun, String> {
    let mut cfg = ServiceConfig::new(dir, quick_protocol());
    cfg.cache = cache.map(PathBuf::from);
    let t = Instant::now();
    let mut service = JobService::<Measurement>::open_on(fs, cfg, key_of)
        .map_err(|e| format!("cannot open the job service in {}: {e}", dir.display()))?;
    let outcome = service
        .run(tasks, exec)
        .map_err(|e| format!("the job service failed in {}: {e}", dir.display()))?;
    let secs = t.elapsed().as_secs_f64();
    Ok(CampaignRun {
        service,
        outcome,
        secs,
    })
}

/// The journal a campaign must produce: one position-independent line
/// per cell (`{crc} {json}`), in the campaign's own task order. Lines
/// are learnt from the first campaign seen; because every later
/// campaign covers the same cells in a seed-drawn order, two campaigns
/// with the same list must agree byte for byte, and a `serve` campaign
/// must match the direct `JobService` journal for the same cells.
#[derive(Default)]
pub struct JournalOracle {
    lines: HashMap<String, String>,
}

impl JournalOracle {
    /// Learns the reference lines from a complete journal. Fails when
    /// the file is not a fully intact journal of `tasks`.
    pub fn learn(
        &mut self,
        fs: &dyn Fs,
        journal: &Path,
        tasks: &[ExperimentPoint],
    ) -> Result<(), String> {
        let text = fs
            .read_to_string(journal)
            .map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
        let recovery = Journal::<Measurement>::load_on(fs, journal)
            .map_err(|e| format!("cannot load {}: {e}", journal.display()))?;
        let lines: Vec<&str> = text.lines().collect();
        if recovery.dropped != 0
            || recovery.entries.len() != tasks.len()
            || lines.len() != tasks.len()
        {
            return Err(format!(
                "{} is not an intact journal of {} cells ({} entries, {} dropped)",
                journal.display(),
                tasks.len(),
                recovery.entries.len(),
                recovery.dropped
            ));
        }
        for ((entry, line), task) in recovery.entries.iter().zip(&lines).zip(tasks) {
            if entry.point != *task {
                return Err(format!(
                    "{} is out of task order at {}",
                    journal.display(),
                    task.label()
                ));
            }
            self.lines.insert(key_of(entry), format!("{line}\n"));
        }
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The exact bytes a campaign over `tasks` must leave behind.
    pub fn expected(&self, tasks: &[ExperimentPoint]) -> Option<String> {
        tasks
            .iter()
            .map(|t| self.lines.get(&task_key(t).ok()?).map(String::as_str))
            .collect()
    }

    /// Whether the journal at `path` is byte-identical to the
    /// expectation for `tasks`.
    pub fn check(&self, fs: &dyn Fs, path: &Path, tasks: &[ExperimentPoint]) -> bool {
        match (fs.read_to_string(path), self.expected(tasks)) {
            (Ok(actual), Some(expected)) => actual == expected,
            _ => false,
        }
    }
}

/// Whether a campaign drained cleanly with every cell durable.
pub fn settled(o: &ServiceOutcome) -> bool {
    o.drained && !o.killed && o.abandoned == 0 && o.completed == o.total
}

struct Setup {
    system: System,
    fs: Arc<MemFs>,
    /// `svc_warm` only: the shared cache, warmed by one cold campaign.
    cache: Option<PathBuf>,
    oracle: JournalOracle,
}

/// Where the campaigns of a run live inside the in-memory filesystem.
const SVC_ROOT: &str = "/svc";

fn set_up(warm: bool) -> Result<Setup, String> {
    let system = quick_system();
    let fs = MemFs::new();
    let mut oracle = JournalOracle::default();
    let cache = if warm {
        let cache = Path::new(SVC_ROOT).join("shared-cache");
        let dir = Path::new(SVC_ROOT).join("warm-up");
        let tasks = full_factorial(&CAMPAIGN_COUNTS);
        let outcome = run_campaign(fs.clone(), &dir, Some(&cache), &tasks, |p| {
            exec_quick(&system, p)
        })?
        .outcome;
        if !settled(&outcome) || outcome.executed != tasks.len() {
            return Err(format!("the cache warm-up did not settle: {outcome:?}"));
        }
        oracle.learn(fs.as_ref(), &dir.join("journal.jsonl"), &tasks)?;
        Some(cache)
    } else {
        None
    };
    Ok(Setup {
        system,
        fs,
        cache,
        oracle,
    })
}

pub fn run(ctx: &Ctx<'_>, warm: bool) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let (setup, setup_s) = timed_setup(|| set_up(warm));
    let Setup {
        system,
        fs,
        cache,
        mut oracle,
    } = setup?;

    let mut times = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |why: String| {
        failed += 1;
        eprintln!("MISMATCH: {why}");
    };
    let started = Instant::now();
    // Campaign 0 is the untimed warm-up of the process (and, cold, the
    // one the journal oracle learns from).
    let mut n = 0usize;
    while n == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let counts = draw_counts(&mut rng);
        let tasks = full_factorial(&counts);
        let dir = Path::new(SVC_ROOT).join(format!("campaign-{n:05}"));
        let span = ctx.tracer.open(
            SpanId::NONE,
            "workload",
            "repetition",
            vec![
                ("counts", format!("{counts:?}")),
                ("cells", tasks.len().to_string()),
            ],
        );
        // Every `exec` call is a child span of the repetition.
        let result = run_campaign(fs.clone(), &dir, cache.as_deref(), &tasks, |point| {
            let exec = ctx
                .tracer
                .open(span, "core", "exec", vec![("p", point.procs.to_string())]);
            let out = exec_quick(&system, point);
            ctx.tracer.close(exec);
            out
        });
        ctx.tracer.close(span);
        let CampaignRun { outcome, secs, .. } = result?;
        let journal = dir.join("journal.jsonl");
        if oracle.is_empty() {
            oracle.learn(fs.as_ref(), &journal, &tasks)?;
        }
        if n > 0 {
            times.push(secs);
            attempted += tasks.len() as u64;
            let wanted_hits = if warm { tasks.len() } else { 0 };
            if !settled(&outcome) || outcome.cache_hits != wanted_hits {
                fail(format!(
                    "campaign {n} did not settle as expected: {outcome:?}"
                ));
            }
            attempted += 1;
            if !oracle.check(fs.as_ref(), &journal, &tasks) {
                fail(format!(
                    "campaign {n} ({counts:?}) left a journal that differs from the reference lines"
                ));
            }
        }
        // Untimed: a long run keeps a flat memory profile.
        fs.remove_tree(&dir);
        n += 1;
    }
    if times.is_empty() {
        return Err("no campaign fit into the run length".to_string());
    }
    let campaign_s = median(&times);
    Ok(Outcome {
        setup_s,
        cells_per_s: CAMPAIGN_CELLS as f64 / campaign_s,
        turnaround_p50_s: campaign_s,
        ok_frac: (attempted - failed) as f64 / attempted as f64,
        child_peak_rss_mb: None,
        observed: None,
        attempted,
        failed,
        base: format!(
            "{} campaigns of {CAMPAIGN_CELLS} cells, median {campaign_s:.6} s each (quartiles {}), {:.3} s in all",
            times.len(),
            quartiles(&times)
                .map_or("n/a".to_string(), |q| format!("{:.6} .. {:.6}", q[0], q[2])),
            times.iter().sum::<f64>()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_reorders_reference_lines_into_each_campaigns_task_order() {
        let fs = MemFs::new();
        let system = quick_system();
        let run = |name: &str, counts: &[usize]| {
            let tasks = full_factorial(counts);
            let dir = Path::new("/oracle").join(name);
            let done =
                run_campaign(fs.clone(), &dir, None, &tasks, |p| exec_quick(&system, p)).unwrap();
            assert!(settled(&done.outcome));
            (dir.join("journal.jsonl"), tasks)
        };
        let (ref_journal, ref_tasks) = run("a", &[1, 2]);
        let mut oracle = JournalOracle::default();
        oracle.learn(fs.as_ref(), &ref_journal, &ref_tasks).unwrap();
        assert!(oracle.check(fs.as_ref(), &ref_journal, &ref_tasks));

        // Same cells, other order: a different file, still predicted
        // byte for byte.
        let (swapped_journal, swapped_tasks) = run("b", &[2, 1]);
        assert_ne!(
            fs.read(&ref_journal).unwrap(),
            fs.read(&swapped_journal).unwrap()
        );
        assert!(oracle.check(fs.as_ref(), &swapped_journal, &swapped_tasks));
        assert!(!oracle.check(fs.as_ref(), &swapped_journal, &ref_tasks));

        // One flipped byte is a mismatch; an unknown cell has no
        // expectation at all.
        let mut bytes = fs.read(&swapped_journal).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 1;
        std::io::Write::write_all(&mut fs.create(&swapped_journal).unwrap(), &bytes).unwrap();
        assert!(!oracle.check(fs.as_ref(), &swapped_journal, &swapped_tasks));
        assert!(oracle.expected(&full_factorial(&[3])).is_none());
    }
}
