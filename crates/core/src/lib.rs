//! # cpc-charmm
//!
//! The subject of the paper: a CHARMM-style replicated-data parallel
//! molecular dynamics engine running on the virtual PC cluster, with
//! the energy calculation instrumented exactly as the paper's Figure 2
//! describes:
//!
//! * [`classic`] — the classic (time-domain) energy calculation: block
//!   partition of the pair list and bonded terms, closed by an
//!   all-to-all collective force combine,
//! * [`pme_par`] — the PME (frequency-domain) calculation: slab
//!   decomposition of the mesh, parallel 3D FFTs via all-to-all
//!   personalized transposes, and its own closing collective,
//! * [`driver`] — the velocity-Verlet measurement loop (the paper runs
//!   10 steps per measurement), over the three moves of one rank type
//!   (`rank::RankMd`: evaluate, drift, kick) that [`recover`] — the
//!   same loop with fault-tolerance hooks between the moves — shares,
//! * [`replay`] — the script store: the first cell of a physics
//!   identity runs live and records every rank's engine operations,
//!   linked once into a schedule that later cells on other platforms
//!   replay in one pass on one thread,
//! * [`report`] — aggregation into the paper's response variables:
//!   classic/PME wall times, computation / communication /
//!   synchronization percentages, and per-node communication speeds.
//!
//! Physics is bit-compatible (up to floating-point reassociation) with
//! the sequential engine in `cpc-md`; timing comes from the calibrated
//! virtual cluster in `cpc-cluster`.

#![warn(missing_docs)]

pub mod chaos;
pub mod ckpt;
pub mod classic;
pub mod decomp;
pub mod driver;
pub mod pme_par;
mod pme_spatial;
mod rank;
pub mod recover;
pub mod replay;
pub mod report;

pub use chaos::{ddmin, minimize, ChaosHarness, Reproducer, ScheduleReport, Violation};
pub use ckpt::{DurableConfig, SaveError};
pub use classic::{classic_energy_parallel, ClassicResult};
pub use driver::{run_parallel_md, CommTuning, MdConfig, PmeImpl};
pub use pme_par::{ParallelPme, PmeParallelResult};
pub use pme_spatial::SpatialPme;
pub use recover::{
    run_parallel_md_faulty, AbftConfig, FaultConfig, FtReport, RecoveryConfig, WatchdogConfig,
};
pub use replay::{ReplayStats, ScriptStore};
pub use report::{RunReport, StepEnergies};
