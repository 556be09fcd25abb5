//! The one chaos harness.
//!
//! The paper answers its question with one apparatus and a factorial
//! design: network, middleware and CPUs per node are switched one at a
//! time on the same CHARMM run. This crate is that apparatus for the
//! reproduction's robustness layer. One conductor
//! ([`run_composed_chaos`]) drives one serve-backed campaign under a
//! [`ComposedPlan`] whose [`LayerMask`] arms any subset of the five
//! fault layers — MD, job service, HTTP transport, disk, scheduler — so
//! a single-layer campaign *is* the composed conductor under a
//! one-layer mask: the same loop, the same [`CrossLedger`], the same
//! oracles ([`check_cross_ledger`]), the same minimizer
//! ([`minimize_composed`]) and reproducer ([`CrossReproducer`]).
//!
//! The MD layer's own harness (`ChaosHarness`, its `Violation`s and
//! `Reproducer`) stays with the engine in `cpc-charmm`; the conductor
//! takes its verdict as a callback and lifts it into the cross-layer
//! book. `ScriptedConn` and `drive` stay in `cpc-gateway`: they are
//! that crate's `Conn` test double.

#![warn(missing_docs)]

pub mod conductor;
pub mod ledger;
pub mod minimize;
pub mod plan;

pub use conductor::{run_composed_chaos, ComposedChaosReport};
pub use ledger::{
    check_cross_ledger, check_disk_ledger, check_gateway_ledger, check_sched_ledger,
    check_service_ledger, CrossLedger, CrossViolation, DiskLedger, DiskViolation, GatewayLedger,
    GatewayViolation, SchedLedger, SchedViolation, ServiceLedger, ServiceViolation,
};
pub use minimize::{minimize_composed, CrossReproducer};
pub use plan::{
    ComposedFaultSpace, ComposedPlan, DiskFaultSpace, Layer, LayerMask, SchedFaultSpace,
    ServiceFault, ServiceFaultPlan, ServiceFaultSpace, TransportFault, TransportFaultPlan,
    TransportFaultSpace, LAYERS,
};
