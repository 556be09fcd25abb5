//! # cpc-md
//!
//! A CHARMM-style classical molecular dynamics engine, built from
//! scratch for the reproduction of *"Performance Characterization of a
//! Molecular Dynamics Code on PC Clusters"* (IPPS 2002).
//!
//! The crate provides everything a CHARMM energy calculation needs:
//!
//! * CHARMM functional forms for bonds, angles, dihedrals and impropers
//!   ([`bonded`]),
//! * switched Lennard-Jones plus shifted or Ewald-direct electrostatics
//!   ([`nonbonded`]) — the paper's "classic" model,
//! * smooth particle mesh Ewald ([`pme`]) validated against a naive
//!   Ewald sum ([`ewald`]) — the paper's "PME" model,
//! * cell-list Verlet neighbour lists ([`neighbor`]),
//! * velocity-Verlet dynamics ([`dynamics`]) with Berendsen/Langevin
//!   thermostats ([`thermostat`]) and steepest-descent minimization
//!   ([`minimize`]),
//! * synthetic workload builders ([`builder`]), including the
//!   3552-atom myoglobin-class system the paper benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use cpc_md::builder::water_box;
//! use cpc_md::dynamics::Simulation;
//! use cpc_md::energy::EnergyModel;
//!
//! let system = water_box(2, 3.1);
//! let mut sim = Simulation::new(system, EnergyModel::Classic, 0.001);
//! let report = sim.step();
//! assert!(report.total_energy().is_finite());
//! ```

#![warn(missing_docs)]

pub mod abft;
pub mod bonded;
pub mod builder;
pub mod constraints;
pub mod dynamics;
pub mod energy;
pub mod ewald;
pub mod forcefield;
pub mod minimize;
pub mod neighbor;
pub mod nonbonded;
pub mod pbc;
pub mod pme;
pub mod sdc;
pub mod snapshot;
pub mod special;
pub mod system;
pub mod thermostat;
pub mod topology;
pub mod units;
pub mod vec3;

pub use energy::{EnergyModel, EnergyReport, Evaluator, OpCounts};
pub use pbc::PbcBox;
pub use snapshot::{MdSnapshot, SnapshotError};
pub use system::System;
pub use vec3::Vec3;
