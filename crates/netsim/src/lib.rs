//! # cpc-cluster
//!
//! A virtual PC cluster for reproducing the paper's platform factors
//! without the 2002 hardware. Ranks execute real code on real threads;
//! *time* is simulated deterministically:
//!
//! * `netmodel` — calibrated LogGP-style models of the paper's three
//!   communication stacks (TCP/IP on Gigabit Ethernet, SCore, Myrinet)
//!   plus Fast Ethernet, including TCP congestion collapse, the
//!   tiny-message delayed-ACK pathology and SMP interrupt serialization,
//! * [`cost`] — a Pentium III / 1 GHz operation cost model charged from
//!   the MD kernels' operation counts,
//! * [`cluster`] — rank/node topology (uni- vs dual-processor nodes),
//! * [`engine`] — the virtual-time message-passing engine, and the
//!   one-thread replay of the scripts a recorded run leaves,
//! * [`stats`] — the computation / communication / synchronization
//!   breakdown and throughput sampling the paper reports,
//! * [`faults`] — deterministic fault injection (lossy links with
//!   explicit RTO/backoff retransmission, transient degradation,
//!   straggler nodes, rank crashes) for graceful-degradation studies.
//!
//! ## Example
//!
//! ```
//! use cpc_cluster::{run_cluster, ClusterConfig, MsgClass, NetworkKind, Phase};
//!
//! let cfg = ClusterConfig::uni(2, NetworkKind::MyrinetGm);
//! let out = run_cluster(cfg, |ctx| {
//!     ctx.set_phase(Phase::Classic);
//!     if ctx.rank() == 0 {
//!         ctx.send(1, 0, vec![42.0], MsgClass::Payload, cpc_cluster::OpShape::p2p());
//!     } else {
//!         assert_eq!(ctx.recv(0, 0).data[0], 42.0);
//!     }
//!     ctx.now()
//! });
//! assert!(out[1].finish_time > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod engine;
pub mod faults;
pub mod fuzz;
mod netmodel;
pub mod rng;
pub mod rtt;
pub mod stats;
pub mod trace;

pub use cluster::ClusterConfig;
pub use cost::{CostModel, CpuConfig, PIII_1GHZ};
pub use engine::{
    elapsed_time, replay, run_cluster, run_cluster_faulty, run_cluster_recorded, CommError,
    FaultyOutcome, Msg, Op, RankCtx, RankOutcome, Script, SendOutcome, SimError,
};
pub use faults::{
    FaultPlan, LinkDegradation, RankCrash, SdcFault, SdcTarget, StorageFault, StorageFaultKind,
    Straggler,
};
pub use fuzz::{sdc_class, FaultSpace, SdcClass};
pub use netmodel::{NetworkKind, NetworkParams, OpShape, TransferCtx, TransferTime};
pub use rng::SplitMix64;
pub use rtt::RttEstimator;
pub use stats::{
    summarize_throughput, MsgClass, Phase, PhaseBucket, RankStats, ThroughputSample,
    ThroughputSummary,
};
pub use trace::{render_timeline, summarize as summarize_trace, TraceEvent, TraceSummary};
