//! # cpc-workload
//!
//! The paper's experimental methodology as a library: factors and
//! levels ([`factors`]), the factorial designs of Section 3.1, an
//! experiment runner extracting the response variables ([`runner`]),
//! ASCII reproductions of every figure ([`figures`]), and the paper's
//! qualitative findings as checkable predicates ([`expectations`]).
//!
//! ## Example
//!
//! ```no_run
//! use cpc_workload::factors::ExperimentPoint;
//! use cpc_workload::figures::{fig3, Lab};
//! use cpc_workload::runner::myoglobin_shared;
//!
//! let system = myoglobin_shared();
//! let mut lab = Lab::paper(system);
//! println!("{}", fig3(&mut lab));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ascii;
pub mod cache;
pub mod expectations;
pub mod factors;
pub mod figures;
pub mod journal;
pub mod queue;
pub mod report;
pub mod runner;
pub mod service;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use factors::{full_factorial, ExperimentPoint, NodeConfig};
pub use figures::Lab;
pub use journal::{Journal, Recovery};
pub use queue::{LeasedTask, WorkQueue};
pub use runner::{measure, measure_with_model, myoglobin_shared, Measurement};
pub use service::{BatchReport, JobService, ServiceConfig, ServiceOutcome};
