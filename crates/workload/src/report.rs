//! Campaign runner: executes the complete reproduction and writes a
//! self-contained artifact directory — every figure, the raw
//! measurements, the factor analysis, the findings ledger and a
//! paper-vs-measured comparison table.

use crate::analysis::{factorial_2k, marginal_means};
use crate::expectations::{render_findings, verify_findings};
use crate::factors::ExperimentPoint;
use crate::figures::{all_figures, Lab};
use cpc_cluster::NetworkKind;
use cpc_mpi::Middleware;
use std::io;
use std::path::{Path, PathBuf};

/// Files written by a campaign.
#[derive(Debug, Clone)]
pub struct CampaignArtifacts {
    /// Directory containing everything below.
    pub dir: PathBuf,
    /// ASCII reproduction of every figure.
    pub figures: PathBuf,
    /// HOLDS/DEVIATES ledger.
    pub findings: PathBuf,
    /// 2^3 factor-effect analysis.
    pub factor_effects: PathBuf,
    /// Paper-vs-measured comparison table.
    pub comparison: PathBuf,
    /// Raw measurements as JSON.
    pub measurements: PathBuf,
    /// Number of findings that hold.
    pub findings_held: usize,
    /// Total findings checked.
    pub findings_total: usize,
}

/// Runs the full campaign with the given lab and writes the artifact
/// directory.
pub fn run_campaign(lab: &mut Lab<'_>, out_dir: impl AsRef<Path>) -> io::Result<CampaignArtifacts> {
    let dir = out_dir.as_ref().to_path_buf();
    std::fs::create_dir_all(&dir)?;

    let figures_path = dir.join("figures.txt");
    std::fs::write(&figures_path, all_figures(lab))?;

    let findings = verify_findings(lab);
    let held = findings.iter().filter(|f| f.holds).count();
    let findings_path = dir.join("findings.txt");
    std::fs::write(&findings_path, render_findings(&findings))?;

    let mut effects = String::new();
    for procs in [2usize, 4, 8] {
        effects.push_str(&factorial_2k(lab, procs).render());
        effects.push_str("\n\n");
    }
    effects.push_str(&marginal_means(lab, 8));
    let effects_path = dir.join("factor_effects.txt");
    std::fs::write(&effects_path, &effects)?;

    let comparison_path = dir.join("comparison.md");
    std::fs::write(&comparison_path, paper_comparison(lab))?;

    let measurements_path = dir.join("measurements.json");
    std::fs::write(&measurements_path, lab.to_json())?;

    Ok(CampaignArtifacts {
        dir,
        figures: figures_path,
        findings: findings_path,
        factor_effects: effects_path,
        comparison: comparison_path,
        measurements: measurements_path,
        findings_held: held,
        findings_total: findings.len(),
    })
}

/// Builds the paper-vs-measured markdown table from live measurements.
///
/// Paper values are read off the published charts (the paper prints few
/// exact numbers); the comparison targets *shapes*.
pub(crate) fn paper_comparison(lab: &mut Lab<'_>) -> String {
    let f1 = lab.measure(ExperimentPoint::focal(1));
    let f2 = lab.measure(ExperimentPoint::focal(2));
    let f8 = lab.measure(ExperimentPoint::focal(8));
    let myri8 = lab.measure(ExperimentPoint {
        network: NetworkKind::MyrinetGm,
        ..ExperimentPoint::focal(8)
    });
    let score8 = lab.measure(ExperimentPoint {
        network: NetworkKind::ScoreGigE,
        ..ExperimentPoint::focal(8)
    });
    let cmpi8 = lab.measure(ExperimentPoint {
        middleware: Middleware::Cmpi,
        ..ExperimentPoint::focal(8)
    });
    let cmpi4 = lab.measure(ExperimentPoint {
        middleware: Middleware::Cmpi,
        ..ExperimentPoint::focal(4)
    });
    let tp = |m: &crate::runner::Measurement| m.throughput.unwrap_or((0.0, 0.0, 0.0));

    let rows: Vec<(String, String, String)> = vec![
        (
            "PME share of total at p=1 (Fig 3)".into(),
            "slightly under 1/2".into(),
            format!("{:.1}%", 100.0 * f1.pme_time / f1.energy_time()),
        ),
        (
            "PME time p=2 vs p=1 (Fig 3)".into(),
            "LARGER at p=2".into(),
            format!("{:.2}s vs {:.2}s", f2.pme_time, f1.pme_time),
        ),
        (
            "classic overhead at p=2 (Fig 4a)".into(),
            "< 10%".into(),
            format!("{:.1}%", 100.0 - f2.classic_pct.0),
        ),
        (
            "classic overhead at p=8 (Fig 4a)".into(),
            "> 60%".into(),
            format!("{:.1}%", 100.0 - f8.classic_pct.0),
        ),
        (
            "PME overhead at p=2 (Fig 4b)".into(),
            "slightly > 50%".into(),
            format!("{:.1}%", 100.0 - f2.pme_pct.0),
        ),
        (
            "PME overhead at p=8 (Fig 4b)".into(),
            "> 75%".into(),
            format!("{:.1}%", 100.0 - f8.pme_pct.0),
        ),
        (
            "p=8 total: TCP / SCore / Myrinet (Fig 5)".into(),
            "TCP >> SCore ~ Myrinet".into(),
            format!(
                "{:.2} / {:.2} / {:.2} s",
                f8.energy_time(),
                score8.energy_time(),
                myri8.energy_time()
            ),
        ),
        (
            "Myrinet throughput (Fig 7)".into(),
            "~130 MB/s".into(),
            format!("{:.0} MB/s avg", tp(&myri8).0),
        ),
        (
            "TCP min-max spread at p=8 (Fig 7)".into(),
            "large (unstable)".into(),
            format!("{:.0}-{:.0} MB/s", tp(&f8).1, tp(&f8).2),
        ),
        (
            "CMPI p=4 -> p=8 (Fig 8a)".into(),
            "time INCREASES ~3x".into(),
            format!("{:.2}s -> {:.2}s", cmpi4.energy_time(), cmpi8.energy_time()),
        ),
        (
            "CMPI sync share at p=8 (Fig 8b)".into(),
            "dominates".into(),
            format!("{:.0}%", cmpi8.energy_pct.2),
        ),
    ];
    let mut out =
        String::from("# Paper vs reproduction\n\n| quantity | paper | measured |\n|---|---|---|\n");
    for (q, p, m) in rows {
        out.push_str(&format!("| {q} | {p} | {m} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{quick_pme_params, quick_system};
    use cpc_md::EnergyModel;

    #[test]
    fn campaign_writes_all_artifacts() {
        let system = quick_system();
        let mut lab = Lab::custom(&system, 1, EnergyModel::Pme(quick_pme_params()));
        let dir = std::env::temp_dir().join("cpc_campaign_test");
        let artifacts = run_campaign(&mut lab, &dir).unwrap();
        for path in [
            &artifacts.figures,
            &artifacts.findings,
            &artifacts.factor_effects,
            &artifacts.comparison,
            &artifacts.measurements,
        ] {
            assert!(path.exists(), "{path:?} missing");
            assert!(
                std::fs::metadata(path).unwrap().len() > 100,
                "{path:?} too small"
            );
        }
        assert!(artifacts.findings_total >= 10);
        let comparison = std::fs::read_to_string(&artifacts.comparison).unwrap();
        assert!(comparison.contains("| quantity | paper | measured |"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comparison_table_has_all_figures() {
        let system = quick_system();
        let mut lab = Lab::custom(&system, 1, EnergyModel::Pme(quick_pme_params()));
        let table = paper_comparison(&mut lab);
        for fig in [
            "Fig 3", "Fig 4a", "Fig 4b", "Fig 5", "Fig 7", "Fig 8a", "Fig 8b",
        ] {
            assert!(table.contains(fig), "missing {fig}");
        }
    }
}
