//! `myo_scaling` and `myo_platforms`: full 3552-atom myoglobin under
//! the paper protocol (10 steps, 80x36x48 PME), every cell checked
//! against the golden rows.

use crate::common::{shuffle, timed_setup, Ctx, Outcome};
use crate::stats::median;
use crate::trace::SpanId;
use cpc_cluster::{NetworkKind, SplitMix64};
use cpc_md::builder::{myoglobin_system_with, MyoglobinOptions};
use cpc_md::{EnergyModel, System};
use cpc_mpi::Middleware;
use cpc_workload::factors::{ExperimentPoint, NodeConfig, PAPER_PROC_COUNTS};
use cpc_workload::figures::{fig3, fig4, Lab};
use cpc_workload::journal::Journal;
use cpc_workload::runner::{measure_with_model, paper_pme_params, PAPER_STEPS};
use cpc_workload::Measurement;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Scaling,
    Platforms,
}

/// The system every figure binary measures: built and relaxed exactly
/// as `cpc_workload::runner::myoglobin_shared` does, but without its
/// once-per-process cell so set-up can be timed more than once.
pub fn build_myoglobin() -> System {
    myoglobin_system_with(MyoglobinOptions {
        minimize_steps: 120,
        temperature: 300.0,
        seed: 2002,
    })
}

pub fn paper_model() -> EnergyModel {
    EnergyModel::Pme(paper_pme_params())
}

/// The checked-in reference rows (`benchmark/golden/measurements.json`,
/// a copy of `results/measurements.json`), keyed by experiment point.
pub struct Golden {
    rows: HashMap<ExperimentPoint, String>,
}

fn canonical(m: &Measurement) -> String {
    serde_json::to_string(m).expect("a measurement serializes")
}

impl Golden {
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("benchmark/golden/measurements.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rows: Vec<Measurement> = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        Ok(Golden {
            rows: rows.iter().map(|m| (m.point, canonical(m))).collect(),
        })
    }

    /// Whether `m` reproduces its golden row to the last digit.
    pub fn matches(&self, m: &Measurement) -> bool {
        self.rows.get(&m.point) == Some(&canonical(m))
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// The cell kinds of a workload, in canonical order.
///
/// `myo_platforms` covers all 3 networks x 2 middlewares at p = 8; the
/// seed draws the node configuration of each, so one pass is 6 of the
/// 12 platform cells. All 12 take 19 s on the reference host, which no
/// run length inside the driver's time cap holds; the 6 still share
/// one physics, which is what the workload is for, and uni and dual
/// cells cost the same host time.
pub fn kinds(which: Which, rng: &mut SplitMix64) -> Vec<ExperimentPoint> {
    match which {
        Which::Scaling => PAPER_PROC_COUNTS
            .iter()
            .map(|&p| ExperimentPoint::focal(p))
            .collect(),
        Which::Platforms => {
            let mut cells = Vec::new();
            for network in [
                NetworkKind::TcpGigE,
                NetworkKind::ScoreGigE,
                NetworkKind::MyrinetGm,
            ] {
                for middleware in Middleware::ALL {
                    let node = NodeConfig::ALL[(rng.next_u64() & 1) as usize];
                    cells.push(ExperimentPoint {
                        network,
                        middleware,
                        node,
                        procs: 8,
                    });
                }
            }
            cells
        }
    }
}

fn point_attrs(p: &ExperimentPoint) -> Vec<(&'static str, String)> {
    vec![
        ("p", p.procs.to_string()),
        ("network", format!("{:?}", p.network)),
        ("middleware", p.middleware.label().to_string()),
        ("node", format!("{:?}", p.node)),
    ]
}

/// Renders Fig. 3 and Fig. 4 from already-measured cells (the lab is
/// pre-seeded through a journal, so nothing is measured again) and
/// says whether both came out.
fn render_scaling_figures(
    system: &System,
    cells: &[Measurement],
    scratch: &Path,
) -> Result<bool, String> {
    let journal = Journal::<Measurement>::create(scratch.join("figures.jsonl"))
        .map_err(|e| format!("cannot create the figure journal: {e}"))?;
    let mut lab = Lab::paper(system);
    lab.attach_journal(journal, cells.to_vec());
    let text = format!("{}\n{}", fig3(&mut lab), fig4(&mut lab));
    Ok(text.contains("Figure 3.") && text.contains("Figure 4a.") && text.contains("Figure 4b."))
}

pub fn run(ctx: &Ctx<'_>, which: Which) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let golden = Golden::load(&ctx.env.root)?;
    let (system, setup_s) = timed_setup(build_myoglobin);

    let canonical_kinds = kinds(which, &mut rng);
    let mut order = canonical_kinds.clone();
    shuffle(&mut order, &mut rng);
    let model = paper_model();

    // Untimed warm-up: first-touch page faults and allocator growth
    // belong to no cell.
    let warm = *canonical_kinds.last().expect("every workload has cells");
    measure_with_model(&system, warm, PAPER_STEPS, model);

    let root = ctx.tracer.open(
        SpanId::NONE,
        "harness",
        "repetition",
        vec![("cells", order.len().to_string())],
    );
    let mut times: HashMap<ExperimentPoint, Vec<f64>> = HashMap::new();
    let mut measured: HashMap<ExperimentPoint, Measurement> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut i = 0usize;
    // Whole cells only, every kind at least once, then on until the
    // run length is used up.
    while i < order.len() || started.elapsed().as_secs_f64() < ctx.seconds {
        let point = order[i % order.len()];
        i += 1;
        let span = ctx.tracer.open(root, "core", "cell", point_attrs(&point));
        let t = Instant::now();
        let m = measure_with_model(&system, point, PAPER_STEPS, model);
        let secs = t.elapsed().as_secs_f64();
        ctx.tracer.close(span);
        attempted += 1;
        if !golden.matches(&m) {
            failed += 1;
            eprintln!("MISMATCH: {} differs from its golden row", point.label());
        }
        times.entry(point).or_default().push(secs);
        measured.insert(point, m);
    }
    let measuring_s = started.elapsed().as_secs_f64();

    if which == Which::Scaling {
        let cells: Vec<Measurement> = canonical_kinds
            .iter()
            .map(|p| measured[p].clone())
            .collect();
        let scratch = crate::guard::TempRoot::new(&ctx.env.tmp(), "myo-figs")
            .map_err(|e| format!("cannot create a scratch root: {e}"))?;
        let span = ctx.tracer.open(root, "workload", "fig3+fig4", Vec::new());
        let rendered = render_scaling_figures(&system, &cells, scratch.path())?;
        ctx.tracer.close(span);
        attempted += 1;
        if !rendered {
            failed += 1;
            eprintln!("MISMATCH: fig3/fig4 did not render from the measured cells");
        }
    }
    ctx.tracer.close(root);

    // One median per kind, so a kind sampled twice (the run length ran
    // into a second pass) weighs the same as one sampled once.
    let per_kind: Vec<f64> = canonical_kinds.iter().map(|p| median(&times[p])).collect();
    let pass_s: f64 = per_kind.iter().sum();
    Ok(Outcome {
        setup_s,
        cells_per_s: per_kind.len() as f64 / pass_s,
        turnaround_p50_s: median(&per_kind),
        ok_frac: (attempted - failed) as f64 / attempted as f64,
        child_peak_rss_mb: None,
        observed: None,
        attempted,
        failed,
        base: format!(
            "{} cell kinds, one pass {pass_s:.3} s at per-kind medians; {attempted} operations in {measuring_s:.3} s; {} golden rows",
            per_kind.len(),
            golden.len()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_copy_is_the_checked_in_results_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let copy = std::fs::read(root.join("benchmark/golden/measurements.json")).unwrap();
        let original = std::fs::read(root.join("results/measurements.json")).unwrap();
        assert!(
            copy == original,
            "benchmark/golden/measurements.json drifted"
        );
        assert_eq!(Golden::load(root).unwrap().len(), 48);
    }

    #[test]
    fn every_seed_draws_cells_that_have_golden_rows_and_cost_the_same() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let golden = Golden::load(root).unwrap();
        for seed in 0..32 {
            let mut rng = SplitMix64::new(seed);
            let scaling = kinds(Which::Scaling, &mut rng);
            assert_eq!(
                scaling.iter().map(|p| p.procs).collect::<Vec<_>>(),
                PAPER_PROC_COUNTS
            );
            let platforms = kinds(Which::Platforms, &mut rng);
            assert_eq!(platforms.len(), 6);
            for p in scaling.iter().chain(&platforms) {
                assert!(golden.rows.contains_key(p), "{}", p.label());
            }
            // Every (network, middleware) pair exactly once, all p = 8.
            let mut pairs: Vec<_> = platforms
                .iter()
                .map(|p| (format!("{:?}", p.network), p.middleware.label(), p.procs))
                .collect();
            pairs.dedup();
            assert_eq!(pairs.len(), 6);
            assert!(pairs.iter().all(|(_, _, procs)| *procs == 8));
        }
    }
}
