//! # cpc-gateway
//!
//! The overload-safe multi-tenant HTTP/JSON front door to the
//! crash-safe campaign job service (`cpc-workload`): remote clients
//! submit measurement campaigns, poll status, and fetch results over
//! a dependency-free HTTP/1.1 surface, while the gateway defends the
//! service against every hostile-transport behaviour the cluster
//! papers' fault model implies at the edge:
//!
//! * [`http`] — bounded HTTP/1.1 over an abstract [`Conn`]: request
//!   deadlines defeating slowloris clients, explicit size limits for
//!   request line / headers / body, typed errors mapping to exact
//!   status codes,
//! * [`tenancy`] — deficit-round-robin fair scheduling across tenants
//!   with priority aging, so a flooding tenant cannot starve a
//!   well-behaved one,
//! * [`gateway`] — routes, per-tenant bounded admission with 429/503
//!   load shedding (`Retry-After` derived from the Jacobson/Karels
//!   RTO estimator over per-cell costs), content-addressed idempotent
//!   submission dedup, graceful drain, and `kill -9` recovery from
//!   per-campaign `meta.json` + journals,
//! * [`chaos`] — the gateway's `Conn` test double: [`ScriptedConn`]
//!   plays hostile clients deterministically on a virtual clock and
//!   [`drive`] pushes one through a gateway with panics contained (the
//!   chaos conductor that turns fault plans into such connections, and
//!   the oracles that judge the result, live above this crate in
//!   `cpc-chaos`),
//! * [`demo`] — the cheap deterministic campaign model tests and CI
//!   gates drive through the full stack.

#![warn(missing_docs)]

pub mod chaos;
pub mod demo;
pub mod gateway;
pub mod http;
pub mod tenancy;

pub use chaos::{drive, http_get, http_post, ScriptedConn};
pub use demo::{demo_cells, demo_flood_cells, DemoModel};
pub use gateway::{
    campaign_id, Begun, CampaignModel, Gateway, GatewayConfig, GatewayStats, PumpReport, Ticket,
};
pub use http::{
    read_request, write_response, Conn, HttpError, HttpLimits, Request, Response, TcpConn,
};
pub use tenancy::{DrrScheduler, TenantPolicy};
