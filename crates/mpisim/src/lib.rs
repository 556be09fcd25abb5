//! # cpc-mpi
//!
//! MPI-flavoured message passing over the virtual cluster of
//! `cpc-cluster`, modelling the paper's middleware factor:
//!
//! * [`Middleware::Mpi`] — blocking point-to-point calls, binomial-tree
//!   barriers, CHARMM-style global combines,
//! * [`Middleware::Cmpi`] — the CHARMM MPI portability layer: split
//!   (nonblocking) send/receive groups, each closed by `p - 1` rounds
//!   of 1-byte ring exchanges.
//!
//! Collectives are implemented on point-to-point messages, so their
//! cost emerges entirely from the network model — nothing is hardcoded
//! about "a barrier costs X".
//!
//! ## Example
//!
//! ```
//! use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind};
//! use cpc_mpi::{Comm, Middleware};
//!
//! let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
//! let out = run_cluster(cfg, |ctx| {
//!     let mut comm = Comm::new(ctx, Middleware::Mpi);
//!     let mut v = vec![comm.rank() as f64];
//!     comm.allreduce_sum(&mut v);
//!     v[0]
//! });
//! assert!(out.iter().all(|o| o.result == 6.0)); // 0+1+2+3
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod detector;
pub mod group;
pub mod middleware;

pub use comm::Comm;
pub use cpc_cluster::CommError;
pub use detector::{DetectorConfig, FailureDetector, PHI_SCALE};
pub use group::GroupComm;
pub use middleware::{CombineAlgo, Middleware};

/// Splits `n` items into `p` contiguous, maximally even blocks and
/// returns block `r` (first `n % p` blocks get one extra item).
pub fn block_range(n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
    assert!(p > 0 && r < p);
    let base = n / p;
    let extra = n % p;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    start..(start + len).min(n)
}
