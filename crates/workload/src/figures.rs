//! Reproductions of every figure in the paper's evaluation, rendered
//! as ASCII charts/tables from measurements on the virtual cluster.
//!
//! Each `figN` function consumes a [`Lab`], which caches measurements
//! so figures sharing the same runs (e.g. 3 and 4) execute them once.

use crate::ascii::{pct, secs, stacked_bar, table};
use crate::factors::{ExperimentPoint, NodeConfig, PAPER_PROC_COUNTS};
use crate::journal::Journal;
use crate::runner::{measure_with_model, paper_pme_params, Measurement};
use cpc_cluster::NetworkKind;
use cpc_md::{EnergyModel, System};
use cpc_mpi::Middleware;
use std::collections::HashMap;

/// Width of the bar area in rendered charts.
const BAR_WIDTH: usize = 46;

/// Process exit code used when a lab's cell budget runs out (see
/// [`Lab::set_cell_budget`]): distinguishable from success and from
/// ordinary failures in CI scripts.
pub const EXIT_CELL_BUDGET: i32 = 3;

/// A measurement laboratory: a system, a protocol, and a cache.
pub struct Lab<'a> {
    system: &'a System,
    steps: usize,
    model: EnergyModel,
    cache: HashMap<ExperimentPoint, Measurement>,
    journal: Option<Journal<Measurement>>,
    cell_budget: Option<usize>,
    fresh_cells: usize,
}

impl<'a> Lab<'a> {
    /// The paper's protocol: 10 MD steps, PME model with the 80x36x48
    /// mesh.
    pub fn paper(system: &'a System) -> Self {
        Lab {
            system,
            steps: crate::runner::PAPER_STEPS,
            model: EnergyModel::Pme(paper_pme_params()),
            cache: HashMap::new(),
            journal: None,
            cell_budget: None,
            fresh_cells: 0,
        }
    }

    /// A custom protocol (smaller systems, fewer steps — used by tests
    /// and quick demo modes).
    pub fn custom(system: &'a System, steps: usize, model: EnergyModel) -> Self {
        Lab {
            system,
            steps,
            model,
            cache: HashMap::new(),
            journal: None,
            cell_budget: None,
            fresh_cells: 0,
        }
    }

    /// Attaches a completed-cell journal: `prior` entries (from
    /// [`Journal::resume`]) pre-seed the cache so finished cells are
    /// skipped, and every fresh measurement is appended as it
    /// completes. Prior entries measured under a different step count
    /// belong to a different protocol and are ignored.
    pub fn attach_journal(&mut self, journal: Journal<Measurement>, prior: Vec<Measurement>) {
        for m in prior {
            if m.steps == self.steps {
                self.cache.insert(m.point, m);
            }
        }
        self.journal = Some(journal);
    }

    /// Limits the number of *fresh* (non-cached, non-journaled)
    /// measurements this lab will run; exceeding the budget exits the
    /// process with [`EXIT_CELL_BUDGET`]. CI uses this to simulate a
    /// campaign killed mid-sweep without resorting to signal timing.
    pub fn set_cell_budget(&mut self, cells: usize) {
        self.cell_budget = Some(cells);
    }

    /// Measures (or retrieves) one experiment point.
    pub fn measure(&mut self, point: ExperimentPoint) -> Measurement {
        if let Some(m) = self.cache.get(&point) {
            return m.clone();
        }
        if self.cell_budget.is_some_and(|b| self.fresh_cells >= b) {
            eprintln!(
                "cell budget exhausted after {} fresh measurements; \
                 re-run with --resume to continue",
                self.fresh_cells
            );
            // This is the binary's exit: say how its cells ran, as
            // `campaign` does on every other one.
            eprintln!("{}", cpc_charmm::ScriptStore::global().stats());
            std::process::exit(EXIT_CELL_BUDGET);
        }
        let m = measure_with_model(self.system, point, self.steps, self.model);
        self.fresh_cells += 1;
        if let Some(journal) = &mut self.journal {
            journal.append(&m).expect("append measurement to journal");
        }
        self.cache.insert(point, m.clone());
        m
    }

    /// All cached measurements (for JSON export).
    pub fn measurements(&self) -> Vec<&Measurement> {
        let mut v: Vec<&Measurement> = self.cache.values().collect();
        v.sort_by_key(|m| {
            (
                format!("{:?}", m.point.network),
                m.point.middleware.label(),
                m.point.node.cpus(),
                m.point.procs,
            )
        });
        v
    }

    /// Serializes every cached measurement to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.measurements()).expect("measurements serialize")
    }

    /// MD steps per measurement.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

fn times_chart(rows: &[(String, Measurement)], caption: &str) -> String {
    let max = rows
        .iter()
        .map(|(_, m)| m.energy_time())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let mut body = Vec::new();
    for (label, m) in rows {
        body.push(vec![
            label.clone(),
            secs(m.classic_time),
            secs(m.pme_time),
            secs(m.energy_time()),
            stacked_bar(&[(m.classic_time, '#'), (m.pme_time, '+')], max, BAR_WIDTH),
        ]);
    }
    format!(
        "{caption}\n  (bars: '#' = classic calculation, '+' = pme calculation)\n\n{}",
        table(&["case", "classic(s)", "pme(s)", "total(s)", "bar"], &body)
    )
}

fn breakdown_chart(rows: &[(String, (f64, f64, f64))], caption: &str) -> String {
    let mut body = Vec::new();
    for (label, (comp, comm, sync)) in rows {
        body.push(vec![
            label.clone(),
            pct(*comp),
            pct(*comm),
            pct(*sync),
            stacked_bar(
                &[(*comp, '#'), (*comm, '~'), (*sync, '=')],
                100.0,
                BAR_WIDTH,
            ),
        ]);
    }
    format!(
        "{caption}\n  (bars: '#' = computation, '~' = communication, '=' = synchronization)\n\n{}",
        table(
            &[
                "case",
                "comp",
                "comm",
                "sync",
                "0%........................100%"
            ],
            &body
        )
    )
}

/// Figure 3: wall-clock time of the total energy calculation for the
/// reference case (TCP/IP on Ethernet, MPI, uni-processor).
pub fn fig3(lab: &mut Lab<'_>) -> String {
    let rows: Vec<(String, Measurement)> = PAPER_PROC_COUNTS
        .iter()
        .map(|&p| (format!("p={p}"), lab.measure(ExperimentPoint::focal(p))))
        .collect();
    times_chart(
        &rows,
        &format!(
            "Figure 3. Execution time of the total energy calculation ({} MD steps)\n\
             Cluster of PCs with: MPI middleware, TCP/IP on Ethernet, uni-processors",
            lab.steps()
        ),
    )
}

/// Figure 4: percentage of computation, communication and
/// synchronization in (a) the classic and (b) the PME energy
/// calculation, reference case.
pub fn fig4(lab: &mut Lab<'_>) -> String {
    let ms: Vec<(usize, Measurement)> = PAPER_PROC_COUNTS
        .iter()
        .map(|&p| (p, lab.measure(ExperimentPoint::focal(p))))
        .collect();
    let a: Vec<(String, (f64, f64, f64))> = ms
        .iter()
        .map(|(p, m)| (format!("p={p}"), m.classic_pct))
        .collect();
    let b: Vec<(String, (f64, f64, f64))> = ms
        .iter()
        .map(|(p, m)| (format!("p={p}"), m.pme_pct))
        .collect();
    format!(
        "{}\n{}",
        breakdown_chart(
            &a,
            "Figure 4a. Percentage of computation, communication and synchronization\n\
             in the CLASSIC energy calculation (reference case)"
        ),
        breakdown_chart(
            &b,
            "Figure 4b. Percentage of computation, communication and synchronization\n\
             in the PME energy calculation (reference case)"
        )
    )
}

const FIG_NETWORKS: [NetworkKind; 3] = [
    NetworkKind::TcpGigE,
    NetworkKind::ScoreGigE,
    NetworkKind::MyrinetGm,
];

/// Figure 5: energy-calculation time for the three networks (MPI,
/// uni-processor).
pub fn fig5(lab: &mut Lab<'_>) -> String {
    let mut rows = Vec::new();
    for network in FIG_NETWORKS {
        for &p in &PAPER_PROC_COUNTS {
            let point = ExperimentPoint {
                network,
                ..ExperimentPoint::focal(p)
            };
            rows.push((format!("{:<22} p={p}", network.label()), lab.measure(point)));
        }
    }
    times_chart(
        &rows,
        &format!(
            "Figure 5. Execution time of the total energy calculation for different\n\
             networks ({} MD steps; MPI middleware, uni-processors)",
            lab.steps()
        ),
    )
}

/// Figure 6: breakdown percentages per network for (a) classic and
/// (b) PME.
pub fn fig6(lab: &mut Lab<'_>) -> String {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for network in FIG_NETWORKS {
        for &p in &PAPER_PROC_COUNTS {
            let point = ExperimentPoint {
                network,
                ..ExperimentPoint::focal(p)
            };
            let m = lab.measure(point);
            let label = format!("{:<22} p={p}", network.label());
            a.push((label.clone(), m.classic_pct));
            b.push((label, m.pme_pct));
        }
    }
    format!(
        "{}\n{}",
        breakdown_chart(
            &a,
            "Figure 6a. Computation/communication/synchronization in the CLASSIC\n\
             energy calculation for different networks"
        ),
        breakdown_chart(
            &b,
            "Figure 6b. Computation/communication/synchronization in the PME\n\
             energy calculation for different networks"
        )
    )
}

/// Figure 7: average and variability (min/max) of the per-node
/// communication speed, MB/s.
pub fn fig7(lab: &mut Lab<'_>) -> String {
    let mut body = Vec::new();
    for network in FIG_NETWORKS {
        for &p in &[2usize, 4, 8] {
            let point = ExperimentPoint {
                network,
                ..ExperimentPoint::focal(p)
            };
            let m = lab.measure(point);
            let (avg, min, max) = m.throughput.unwrap_or((0.0, 0.0, 0.0));
            body.push(vec![
                format!("{:<22} p={p}", network.label()),
                format!("{avg:7.1}"),
                format!("{min:7.1}"),
                format!("{max:7.1}"),
                crate::ascii::hbar(avg, 140.0, 35, '#')
                    + &format!(" |{}-{}|", min.round(), max.round()),
            ]);
        }
    }
    format!(
        "Figure 7. Average and variability of the communication speed per node\n\
         (MB/s; MPI middleware, uni-processor cluster)\n\n{}",
        table(
            &["case", "avg", "min", "max", "0 MB/s ............. 140 MB/s"],
            &body
        )
    )
}

/// Figure 8: MPI vs CMPI middleware — (a) wall times, (b) breakdown of
/// the total energy calculation.
pub fn fig8(lab: &mut Lab<'_>) -> String {
    let mut rows = Vec::new();
    let mut pcts = Vec::new();
    for middleware in Middleware::ALL {
        for &p in &PAPER_PROC_COUNTS {
            let point = ExperimentPoint {
                middleware,
                ..ExperimentPoint::focal(p)
            };
            let m = lab.measure(point);
            let label = format!("{:<4} p={p}", middleware.label());
            rows.push((label.clone(), m.clone()));
            pcts.push((label, m.energy_pct));
        }
    }
    format!(
        "{}\n{}",
        times_chart(
            &rows,
            &format!(
                "Figure 8a. Execution time of the total energy calculation for\n\
                 different middlewares ({} MD steps; TCP/IP on Ethernet, uni-processors)",
                lab.steps()
            )
        ),
        breakdown_chart(
            &pcts,
            "Figure 8b. Computation/communication/synchronization in the TOTAL\n\
             energy calculation for different middlewares"
        )
    )
}

/// Figure 9: uni- vs dual-processor nodes on (a) TCP/IP and
/// (b) Myrinet.
pub fn fig9(lab: &mut Lab<'_>) -> String {
    let mut render_for = |network: NetworkKind, tag: &str| {
        let mut rows = Vec::new();
        for node in NodeConfig::ALL {
            for &p in &PAPER_PROC_COUNTS {
                let point = ExperimentPoint {
                    network,
                    node,
                    ..ExperimentPoint::focal(p)
                };
                rows.push((format!("{:<14} p={p}", node.label()), lab.measure(point)));
            }
        }
        times_chart(
            &rows,
            &format!(
                "Figure 9{tag}. Energy-calculation time for different numbers of CPUs\n\
                 per node, {} (MPI middleware)",
                network.label()
            ),
        )
    };
    let a = render_for(NetworkKind::TcpGigE, "a");
    let b = render_for(NetworkKind::MyrinetGm, "b");
    format!("{a}\n{b}")
}

/// The full factorial design (Section 3.1): all 12 platform cells at
/// every processor count.
pub fn factorial_table(lab: &mut Lab<'_>) -> String {
    let mut body = Vec::new();
    for point in crate::factors::full_factorial(&PAPER_PROC_COUNTS) {
        let m = lab.measure(point);
        let (comp, comm, sync) = m.energy_pct;
        body.push(vec![
            point.network.label().to_string(),
            point.middleware.label().to_string(),
            point.node.label().to_string(),
            point.procs.to_string(),
            secs(m.classic_time),
            secs(m.pme_time),
            secs(m.energy_time()),
            pct(comp),
            pct(comm),
            pct(sync),
        ]);
    }
    format!(
        "Full factorial design (3 networks x 2 middlewares x 2 node configs,\n\
         p = 1/2/4/8): response variables of the total energy calculation\n\n{}",
        table(
            &[
                "network",
                "middleware",
                "nodes",
                "p",
                "classic",
                "pme",
                "total",
                "comp",
                "comm",
                "sync"
            ],
            &body
        )
    )
}

/// Figure 1 (descriptive): the factor space of the experimental
/// design, with the focal point marked.
pub fn factor_space() -> String {
    "Figure 1. Factor space of the experimental design\n\
     \n\
     Networking:      TCP/IP on Ethernet* -> SCore on Ethernet -> Myrinet\n\
     Middleware:      MPI* -> CMPI\n\
     CPUs per node:   uni-processor* -> dual-processor\n\
     \n\
     (* = focal point: the most common cluster configuration, MPICH over\n\
     TCP/IP on Gigabit Ethernet with uni-processor nodes. The study moves\n\
     one factor at a time from the focal point; the full factorial of all\n\
     12 cells is also measured — see the factorial table.)\n"
        .to_string()
}

/// Figure 2 (descriptive): the structure of the energy calculation,
/// rendered as the phase trace the instrumented engine actually
/// executes.
pub fn phase_trace() -> String {
    "Figure 2. Structure of the energy calculation in CHARMM\n\
     \n\
     classic (switch/shift) model     PME model\n\
     ----------------------------     -------------------------------------\n\
     COMPUTATION   (pairs+bonded)     COMPUTATION   (pairs+bonded)   classic\n\
     COMMUNICATION (all-to-all        COMMUNICATION (all-to-all      classic\n\
                    collective)                      collective)\n\
                                      COMPUTATION   (spread, 2D FFT) pme\n\
                                      FFT fwd:      all-to-all       pme\n\
                                                    personalized\n\
                                      COMPUTATION   (1D FFT, conv)   pme\n\
                                      FFT bwd:      all-to-all       pme\n\
                                                    personalized\n\
                                      COMPUTATION   (2D FFT, interp) pme\n\
                                      COMMUNICATION (all-to-all      pme\n\
                                                     collective)\n"
        .to_string()
}

/// Renders every figure in order (the `figures` bench target and the
/// `make_all_figures` binary).
pub fn all_figures(lab: &mut Lab<'_>) -> String {
    let sections = [
        factor_space(),
        phase_trace(),
        fig3(lab),
        fig4(lab),
        fig5(lab),
        fig6(lab),
        fig7(lab),
        fig8(lab),
        fig9(lab),
        factorial_table(lab),
    ];
    sections.join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{quick_pme_params, quick_system};

    fn quick_lab(system: &System) -> Lab<'_> {
        Lab::custom(system, 1, EnergyModel::Pme(quick_pme_params()))
    }

    #[test]
    fn attached_journal_skips_finished_cells_and_foreign_protocols() {
        let path =
            std::env::temp_dir().join(format!("cpc-lab-journal-{}.jsonl", std::process::id()));
        // Journal a sentinel measurement for focal(2) under this lab's
        // protocol (steps = 1), and one under a different protocol.
        let sentinel = Measurement {
            point: ExperimentPoint::focal(2),
            steps: 1,
            classic_time: 1234.5,
            pme_time: 0.0,
            classic_pct: (100.0, 0.0, 0.0),
            pme_pct: (100.0, 0.0, 0.0),
            energy_pct: (100.0, 0.0, 0.0),
            throughput: None,
            final_total_energy: 0.0,
        };
        let foreign = Measurement {
            steps: 99,
            point: ExperimentPoint::focal(4),
            ..sentinel.clone()
        };
        let mut journal = Journal::create(&path).unwrap();
        journal.append(&sentinel).unwrap();
        journal.append(&foreign).unwrap();
        drop(journal);

        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        let (journal, recovery) = Journal::resume(&path).unwrap();
        lab.attach_journal(journal, recovery.entries);
        // The journaled cell is skipped (the sentinel comes back
        // verbatim instead of a fresh measurement)...
        let m = lab.measure(ExperimentPoint::focal(2));
        assert_eq!(m.classic_time, 1234.5);
        // ...while the foreign-protocol entry was ignored: this cell
        // runs fresh and gets journaled.
        let m4 = lab.measure(ExperimentPoint::focal(4));
        assert_ne!(m4.classic_time, 1234.5);
        assert_eq!(m4.steps, 1);
        let rec: crate::journal::Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec.entries.len(), 3, "fresh cell appended to journal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lab_caches_measurements() {
        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        let p = ExperimentPoint::focal(2);
        let a = lab.measure(p);
        let b = lab.measure(p);
        assert_eq!(a.classic_time, b.classic_time);
        assert_eq!(lab.measurements().len(), 1);
    }

    #[test]
    fn fig3_renders_all_proc_counts() {
        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        let out = fig3(&mut lab);
        for p in PAPER_PROC_COUNTS {
            assert!(out.contains(&format!("p={p}")), "missing p={p} in:\n{out}");
        }
        assert!(out.contains("Figure 3"));
        assert!(out.contains('#'));
    }

    #[test]
    fn fig4_has_both_panels() {
        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        let out = fig4(&mut lab);
        assert!(out.contains("Figure 4a"));
        assert!(out.contains("Figure 4b"));
    }

    #[test]
    fn fig7_reports_throughput_stats() {
        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        let out = fig7(&mut lab);
        assert!(out.contains("Figure 7"));
        assert!(out.contains("Myrinet"));
        // Three networks x three proc counts.
        assert!(out.matches("p=8").count() >= 3);
    }

    #[test]
    fn json_export_is_valid() {
        let sys = quick_system();
        let mut lab = quick_lab(&sys);
        lab.measure(ExperimentPoint::focal(2));
        let json = lab.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().len() == 1);
    }

    #[test]
    fn factor_space_lists_all_levels() {
        let t = factor_space();
        for needle in [
            "TCP/IP",
            "SCore",
            "Myrinet",
            "CMPI",
            "dual-processor",
            "focal",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn phase_trace_mentions_both_models() {
        let t = phase_trace();
        assert!(t.contains("PME model"));
        assert!(t.contains("all-to-all"));
    }
}
