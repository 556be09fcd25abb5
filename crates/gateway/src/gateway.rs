//! The overload-safe multi-tenant campaign gateway: HTTP/JSON routes
//! over the crash-safe [`JobService`], with explicit load shedding,
//! deficit-round-robin fair scheduling across tenants, idempotent
//! deduplicated submissions, and graceful drain.
//!
//! ## Durability model
//!
//! Every campaign lives in its own directory under
//! `<root>/campaigns/<id>/` holding the service's queue shards,
//! results journal and cache plus a `meta.json` (tenant + cells)
//! written atomically *before* the campaign is registered. `kill -9`
//! of the gateway at any instant therefore loses nothing: the next
//! incarnation rescans `campaigns/*/meta.json`, reopens each
//! [`JobService`] (construction is recovery) and resumes stepping.
//! The campaign id is the content address of the submission —
//! `fnv1a64(tenant ‖ protocol ‖ canonical cells JSON)` — so a client
//! that times out and retries its POST lands on the same campaign:
//! retried submissions deduplicate instead of double-executing.
//!
//! ## Overload model
//!
//! Admission is bounded per tenant ([`TenantPolicy::max_pending_cells`]);
//! beyond it the submission is shed with 429. A draining gateway sheds
//! with 503. Both carry `Retry-After` derived from the Jacobson/Karels
//! [`RttEstimator`] over observed per-cell execution times — the same
//! estimator the cluster uses for retransmission timeouts — scaled by
//! the backlog the client is behind.

use crate::http::{read_request, write_response, Conn, HttpLimits, Response};
use crate::tenancy::{DrrScheduler, TenantPolicy};
use cpc_cluster::RttEstimator;
use cpc_pool::{Pool, SchedChaos};
use cpc_vfs::{atomic_publish, fnv1a64, is_enospc, real_fs, SharedFs};
use cpc_workload::service::{
    task_key, Batch, JobService, KillPoint, ServiceConfig, ServiceOutcome, Settled, StepOutcome,
};
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::ops::DerefMut;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// How a campaign's task list, execution and result rendering plug
/// into the gateway. The gateway is generic so the bench binary can
/// serve real measurement cells while tests and the chaos harness
/// serve a cheap deterministic model through identical code paths.
/// `Sync` (and the `Sync`/`Send` bounds on the associated types)
/// because a [`Ticket`] executes each DRR grant's batch of cells
/// concurrently on a `cpc-pool` executor.
pub trait CampaignModel: Sync {
    /// One cell of work, serializable for the queue key.
    type Task: serde::Serialize + Clone + Sync;
    /// One durable result, serializable for the journal.
    type Result: serde::Serialize + serde::Deserialize + Clone + Send;

    /// Parses a submission's `cells` JSON into tasks; `Err` becomes a
    /// 400 with the message.
    fn parse_cells(&self, cells: &Value) -> Result<Vec<Self::Task>, String>;
    /// Maps a journaled result back to its task key (the
    /// [`JobService`] key extractor).
    fn key_of(r: &Self::Result) -> String;
    /// Executes one cell, returning the result and its virtual cost
    /// in seconds. `&self` because the cells of one batch execute
    /// concurrently; per-cell determinism must not depend on
    /// execution order.
    fn exec(&self, task: &Self::Task) -> (Self::Result, f64);
    /// Renders a result for the results endpoint.
    fn result_json(r: &Self::Result) -> Value {
        serde::Serialize::to_value(r)
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Root directory; campaigns live under `<root>/campaigns/<id>/`.
    pub root: PathBuf,
    /// Protocol string folded into every cache key and campaign id.
    pub protocol: String,
    /// HTTP request limits.
    pub limits: HttpLimits,
    /// Tenant admission and fair-scheduling policy.
    pub policy: TenantPolicy,
    /// Queue journal shards per campaign.
    pub shards: usize,
    /// Kill injection applied to campaign services (chaos harness):
    /// the incarnation dies at the n-th fresh execution.
    pub kill: Option<(usize, KillPoint)>,
    /// Worker threads per pump grant: each DRR grant advances up to
    /// this many cells of one campaign concurrently on a `cpc-pool`
    /// executor. 1 (the default) reproduces the serial one-cell-per-
    /// grant pump exactly.
    pub threads: usize,
    /// Stale-lease injection passed through to every campaign service
    /// (chaos harness): the n-th lease is also completed through a
    /// stale duplicate handle, which the queue must reject.
    pub stale_lease_at: Option<usize>,
}

impl GatewayConfig {
    /// Defaults around a root directory and protocol string.
    pub fn new(root: impl Into<PathBuf>, protocol: impl Into<String>) -> Self {
        GatewayConfig {
            root: root.into(),
            protocol: protocol.into(),
            limits: HttpLimits::default(),
            policy: TenantPolicy::default(),
            shards: 4,
            kill: None,
            threads: 1,
            stale_lease_at: None,
        }
    }

    /// The directory of one campaign.
    pub fn campaign_dir(&self, id: &str) -> PathBuf {
        self.root.join("campaigns").join(id)
    }

    /// The results journal of one campaign — the byte-identity
    /// artifact.
    pub fn campaign_journal(&self, id: &str) -> PathBuf {
        self.campaign_dir(id).join("journal.jsonl")
    }
}

/// Connection/request accounting for the chaos ledger and operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Connections the gateway started handling.
    pub conns_opened: usize,
    /// Connections it finished handling (every exit path).
    pub conns_closed: usize,
    /// Requests handled (including rejected ones).
    pub requests: usize,
    /// Responses with status >= 400.
    pub rejected: usize,
    /// Load-shed responses (429/503, always with `Retry-After`).
    pub shed: usize,
    /// Campaigns quiesced by a storage failure mid-batch (cumulative
    /// transitions, not currently-stalled count — see
    /// [`Gateway::stalled_count`] for the latter). Each stall can
    /// strand up to a pool width of in-flight executions whose
    /// commits never became durable.
    pub stalls: usize,
    /// Stalled campaigns revived by reopening their service from
    /// disk (cumulative).
    pub revives: usize,
}

/// What one [`Gateway::pump`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpReport {
    /// Cells advanced.
    pub granted: usize,
    /// The injected kill fired; the gateway is dead.
    pub killed: bool,
}

struct Campaign<M: CampaignModel> {
    id: String,
    tenant: String,
    /// Shared with the ticket in flight, which executes over them
    /// while the gateway is unlocked.
    tasks: Arc<[M::Task]>,
    service: JobService<M::Result>,
    done: bool,
    /// A storage failure (ENOSPC, EIO, failed fsync) interrupted a
    /// step: the campaign is quiesced — no further steps are driven
    /// through the possibly-poisoned in-memory service. A later pump
    /// revives it by reopening the service from disk (construction is
    /// recovery), which resumes byte-identically once the disk heals.
    stalled: bool,
}

/// One DRR grant between its two critical sections: the leased batch
/// of one campaign plus everything needed to execute it — handles to
/// the campaign's tasks, the model and the pool — so [`Ticket::run`]
/// borrows nothing of the gateway and a later
/// [`Gateway::swap_pool`]/[`Gateway::arm_sched_chaos`] cannot pull the
/// executor away mid-ticket. [`Gateway::begin`] issues it,
/// [`Gateway::finish`] commits it.
pub struct Ticket<M: CampaignModel> {
    campaign: String,
    batch: Batch<M::Result>,
    tasks: Arc<[M::Task]>,
    model: Arc<M>,
    pool: Pool,
}

impl<M: CampaignModel> Ticket<M> {
    /// Executes the ticket's cells — the physics, and all of it. A
    /// panicking cell is contained by the pool and re-executed after
    /// [`Gateway::finish`] hands the ticket back.
    pub fn run(&mut self) {
        let model = &*self.model;
        self.batch
            .execute(&self.tasks, &self.pool, &|t: &M::Task| model.exec(t));
    }
}

/// What [`Gateway::begin`] found to do.
// Returned once per grant and matched at once; boxing the ticket would
// be an allocation inside the critical section.
#[allow(clippy::large_enum_variant)]
pub enum Begun<M: CampaignModel> {
    /// No tenant has backlog.
    Idle,
    /// The injected kill fired earlier; the gateway refuses work.
    Dead,
    /// The grant was spent without a batch: its campaign could not
    /// be revived from a still-sick disk, revived already finished,
    /// or stalled while leasing.
    Skipped,
    /// A leased batch to [`Ticket::run`] and [`Gateway::finish`].
    Ticket(Ticket<M>),
}

/// The gateway itself: bookkeeping only. Every method takes `&mut
/// self` and is short — a route, a DRR grant plus the leases of one
/// batch ([`Self::begin`]), the commit of one batch ([`Self::finish`])
/// — so a process shares it behind one mutex ([`Self::handle_shared`],
/// [`Self::pump_shared`]) that is never held while cells execute: the
/// physics runs on a [`Ticket`] between two holds. One ticket is in
/// flight at a time, so journals, cache and DRR state see one
/// sequence of mutations whatever requests interleave with it;
/// determinism of the underlying service is what makes kill-resume
/// byte-identical through the HTTP path.
pub struct Gateway<M: CampaignModel> {
    cfg: GatewayConfig,
    fs: SharedFs,
    model: Arc<M>,
    sched: DrrScheduler,
    campaigns: Vec<Campaign<M>>,
    index: HashMap<String, usize>,
    draining: bool,
    dead: bool,
    rtt: RttEstimator,
    stats: GatewayStats,
    pool: Pool,
    /// A ticket is out: commit order is ticket order, so a second
    /// `begin` before its `finish` is a driver bug.
    ticket_out: bool,
}

fn io_err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The content address of a submission — what `POST /campaigns`
/// computes for idempotent dedup. Exposed so drivers and tests can
/// predict the campaign id of a canonical cells JSON (as rendered by
/// `serde_json::to_string`, which this gateway uses as the canonical
/// form).
pub fn campaign_id(tenant: &str, protocol: &str, cells_json: &str) -> String {
    format!(
        "{:016x}",
        fnv1a64(format!("{tenant}\n{protocol}\n{cells_json}").as_bytes())
    )
}

fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl<M: CampaignModel> Gateway<M> {
    /// Opens the gateway on the real filesystem, recovering every
    /// campaign found under `<root>/campaigns/` (sorted by id for a
    /// deterministic schedule after restart).
    pub fn open(cfg: GatewayConfig, model: M) -> io::Result<Self> {
        Self::open_on(real_fs(), cfg, model)
    }

    /// Opens the gateway on an injected filesystem — the hook through
    /// which the disk chaos campaigns and the live ENOSPC smoke
    /// ([`cpc_vfs::EnospcTrigger`]) reach every durable write the
    /// gateway or its campaign services make.
    pub fn open_on(fs: SharedFs, cfg: GatewayConfig, model: M) -> io::Result<Self> {
        fs.create_dir_all(&cfg.root.join("campaigns"))?;
        let mut gw = Gateway {
            sched: DrrScheduler::new(&cfg.policy),
            pool: Pool::new(cfg.threads.max(1)),
            cfg,
            fs,
            model: Arc::new(model),
            campaigns: Vec::new(),
            index: HashMap::new(),
            draining: false,
            dead: false,
            rtt: RttEstimator::new(),
            stats: GatewayStats::default(),
            ticket_out: false,
        };
        let mut ids: Vec<String> = gw
            .fs
            .read_dir(&gw.cfg.root.join("campaigns"))?
            .into_iter()
            .filter(|p| gw.fs.exists(&p.join("meta.json")))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        ids.sort();
        for id in ids {
            let meta_path = gw.cfg.campaign_dir(&id).join("meta.json");
            let text = gw.fs.read_to_string(&meta_path)?;
            let meta: Value = serde_json::from_str(&text)
                .map_err(|e| io_err(format!("corrupt {}: {e}", meta_path.display())))?;
            let tenant = meta
                .get("tenant")
                .and_then(Value::as_str)
                .ok_or_else(|| io_err("meta.json missing tenant"))?
                .to_string();
            let cells = meta
                .get("cells")
                .ok_or_else(|| io_err("meta.json missing cells"))?;
            let tasks = gw.model.parse_cells(cells).map_err(io_err)?;
            gw.register(id, tenant, tasks.into())?;
        }
        Ok(gw)
    }

    /// Opens (recovers) one campaign's service from disk and stages
    /// its task list — used at registration and when reviving a
    /// stalled campaign after a storage failure.
    fn open_service(&self, id: &str, tasks: &[M::Task]) -> io::Result<JobService<M::Result>> {
        let mut scfg = ServiceConfig::new(self.cfg.campaign_dir(id), &self.cfg.protocol);
        scfg.shards = self.cfg.shards;
        scfg.kill = self.cfg.kill;
        scfg.stale_lease_at = self.cfg.stale_lease_at;
        let mut service =
            JobService::<M::Result>::open_on(self.fs.clone(), scfg, |r| M::key_of(r))?;
        service.prepare(tasks)?;
        Ok(service)
    }

    /// Whether a campaign is truly finished: the queue drained AND
    /// every cell is accounted for by a durable result or a
    /// dead-letter. A drained queue alone is not enough — a torn
    /// result-journal write can destroy committed results while the
    /// queue still carries their done markers, and such a campaign
    /// must keep pumping so [`JobService::collect_batch`] heals the misses.
    fn settled(out: &ServiceOutcome) -> bool {
        out.drained && out.completed + out.abandoned >= out.total
    }

    fn register(&mut self, id: String, tenant: String, tasks: Arc<[M::Task]>) -> io::Result<()> {
        let service = self.open_service(&id, &tasks)?;
        let done = Self::settled(&service.outcome());
        self.sched.register(&tenant);
        self.index.insert(id.clone(), self.campaigns.len());
        self.campaigns.push(Campaign {
            id,
            tenant,
            tasks,
            service,
            done,
            stalled: false,
        });
        Ok(())
    }

    fn remaining(c: &Campaign<M>) -> usize {
        if c.done {
            return 0;
        }
        let out = c.service.outcome();
        out.total.saturating_sub(out.completed + out.abandoned)
    }

    fn backlog_of(campaigns: &[Campaign<M>], tenant: &str) -> usize {
        campaigns
            .iter()
            .filter(|c| c.tenant == tenant)
            .map(Self::remaining)
            .sum()
    }

    fn total_backlog(&self) -> usize {
        self.campaigns.iter().map(Self::remaining).sum()
    }

    /// Seconds a shed client should wait before retrying: the
    /// Jacobson/Karels retransmission timeout over observed per-cell
    /// costs, scaled by the backlog ahead of the client.
    fn retry_after(&self, backlog_cells: usize) -> u64 {
        let per_cell = self.rtt.rto().unwrap_or(1.0);
        let secs = (per_cell * backlog_cells.max(1) as f64).ceil();
        (secs as u64).clamp(1, 120)
    }

    fn shed(&mut self, status: u16, reason: &'static str, why: &str, backlog: usize) -> Response {
        let retry = self.retry_after(backlog);
        Response::json(
            status,
            reason,
            format!("{{\"error\":\"{why}\",\"retry_after\":{retry}}}"),
        )
        .with_header("Retry-After", retry.to_string())
    }

    /// Handles one connection end to end: read, route, respond. Every
    /// exit path (including unwritable responses to vanished peers)
    /// closes the connection and is accounted in [`GatewayStats`].
    pub fn handle(&mut self, conn: &mut dyn Conn) {
        self.stats.conns_opened += 1;
        let limits = self.cfg.limits.clone();
        let resp = match read_request(conn, &limits) {
            Ok(req) => self.route(&req.method, &req.path, &req.body),
            Err(e) => {
                let (status, reason) = e.status();
                Response::json(status, reason, format!("{{\"error\":\"{reason}\"}}"))
            }
        };
        self.count_response(&resp);
        // A peer that disconnected mid-response is its own problem;
        // the gateway's job is only to never wedge on it.
        let _ = write_response(conn, &resp);
        self.stats.conns_closed += 1;
    }

    /// Accounts one request and its response on a connection already
    /// counted open.
    fn count_response(&mut self, resp: &Response) {
        self.stats.requests += 1;
        if resp.status >= 400 {
            self.stats.rejected += 1;
        }
        if resp.status == 429 || resp.status == 503 || resp.status == 507 {
            self.stats.shed += 1;
        }
    }

    /// [`handle`](Self::handle) for a gateway shared across accept
    /// workers: the request is read and the response written OUTSIDE
    /// the lock, so a slow or hostile peer stalls only its own worker
    /// while the others keep routing. The lock is taken twice: once
    /// the request has arrived, for routing and its accounting, and
    /// after the write, to close the connection in [`GatewayStats`]
    /// (a connection that never delivers a request is accounted,
    /// opened and closed, in that second section alone). Every exit
    /// path still closes, so the fd-leak oracle (`conns_opened ==
    /// conns_closed` at quiescence) covers concurrent connections
    /// unchanged. `limits` are the gateway's own
    /// ([`GatewayConfig::limits`]), read once by the caller instead of
    /// under the lock per request.
    pub fn handle_shared(gw: &Mutex<Self>, limits: &HttpLimits, conn: &mut dyn Conn) {
        let (resp, counted) = match read_request(conn, limits) {
            Ok(req) => {
                let mut g = gw.lock().expect("gateway lock");
                g.stats.conns_opened += 1;
                let resp = g.route(&req.method, &req.path, &req.body);
                g.count_response(&resp);
                (resp, true)
            }
            Err(e) => {
                let (status, reason) = e.status();
                let body = format!("{{\"error\":\"{reason}\"}}");
                (Response::json(status, reason, body), false)
            }
        };
        let _ = write_response(conn, &resp);
        let mut g = gw.lock().expect("gateway lock");
        if !counted {
            g.stats.conns_opened += 1;
            g.count_response(&resp);
        }
        g.stats.conns_closed += 1;
    }

    fn route(&mut self, method: &str, path: &str, body: &[u8]) -> Response {
        match (method, path) {
            ("GET", "/healthz") => Response::json(
                200,
                "OK",
                format!(
                    "{{\"status\":\"ok\",\"draining\":{},\"campaigns\":{}}}",
                    self.draining,
                    self.campaigns.len()
                ),
            ),
            ("GET", "/readyz") => {
                if self.draining {
                    let backlog = self.total_backlog();
                    self.shed(503, "Service Unavailable", "draining", backlog)
                } else {
                    Response::json(200, "OK", "{\"ready\":true}")
                }
            }
            ("POST", "/drain") => {
                self.draining = true;
                Response::json(200, "OK", "{\"draining\":true}")
            }
            ("POST", "/campaigns") => self.submit(body),
            ("GET", p) if p.starts_with("/campaigns/") => {
                let rest = &p["/campaigns/".len()..];
                if let Some(id) = rest.strip_suffix("/results") {
                    self.results(id)
                } else if !rest.contains('/') {
                    self.status(rest)
                } else {
                    Response::json(404, "Not Found", "{\"error\":\"no such route\"}")
                }
            }
            ("GET" | "POST", _) => {
                Response::json(404, "Not Found", "{\"error\":\"no such route\"}")
            }
            _ => Response::json(
                405,
                "Method Not Allowed",
                "{\"error\":\"method not allowed\"}",
            ),
        }
    }

    fn submit(&mut self, body: &[u8]) -> Response {
        let bad =
            |why: &str| Response::json(400, "Bad Request", format!("{{\"error\":\"{why}\"}}"));
        let Ok(text) = std::str::from_utf8(body) else {
            return bad("body is not UTF-8");
        };
        let Ok(v) = serde_json::from_str::<Value>(text) else {
            return bad("body is not valid JSON");
        };
        let Some(tenant) = v.get("tenant").and_then(Value::as_str) else {
            return bad("missing tenant");
        };
        if !valid_tenant(tenant) {
            return bad("invalid tenant name");
        }
        let tenant = tenant.to_string();
        let Some(cells) = v.get("cells") else {
            return bad("missing cells");
        };
        let cells_json = match serde_json::to_string(cells) {
            Ok(s) => s,
            Err(_) => return bad("unserializable cells"),
        };
        let id = campaign_id(&tenant, &self.cfg.protocol, &cells_json);

        // Idempotent retried submission: the content address already
        // exists, so the retry maps onto the running campaign instead
        // of double-executing it.
        if self.index.contains_key(&id) {
            let out = self.outcome_of(&id).expect("indexed campaign");
            return Response::json(
                200,
                "OK",
                format!(
                    "{{\"campaign\":\"{id}\",\"cells\":{},\"deduplicated\":true,\"completed\":{}}}",
                    out.total, out.completed
                ),
            );
        }
        if self.draining {
            let backlog = self.total_backlog();
            return self.shed(503, "Service Unavailable", "draining", backlog);
        }
        let tasks = match self.model.parse_cells(cells) {
            Ok(t) => t,
            Err(why) => {
                return bad(&why.replace(['"', '\\'], "'"));
            }
        };
        if tasks.is_empty() {
            return bad("empty campaign");
        }
        let backlog = Self::backlog_of(&self.campaigns, &tenant);
        if backlog + tasks.len() > self.cfg.policy.max_pending_cells {
            return self.shed(429, "Too Many Requests", "tenant backlog full", backlog);
        }

        // Durable registration: meta.json lands via atomic_publish
        // (write tmp → fsync → rename → fsync dir) before the campaign
        // is admitted, so a kill — or a power cut — between the two
        // leaves at worst an idle directory the next incarnation
        // re-adopts. The directory fsyncs matter: without them the
        // registration could be acked to the client and then vanish
        // with the page cache.
        let dir = self.cfg.campaign_dir(&id);
        let n = tasks.len();
        let meta = format!("{{\"tenant\":\"{tenant}\",\"cells\":{cells_json}}}");
        let write = |fs: &SharedFs| -> io::Result<()> {
            fs.create_dir_all(&dir)?;
            atomic_publish(fs.as_ref(), &dir.join("meta.json"), meta.as_bytes())?;
            // The campaign directory itself must survive power loss
            // before the client is told anything was created.
            fs.sync_dir(&self.cfg.root.join("campaigns"))
        };
        match write(&self.fs).and_then(|()| self.register(id.clone(), tenant, tasks.into())) {
            Ok(()) => Response::json(
                201,
                "Created",
                format!("{{\"campaign\":\"{id}\",\"cells\":{n}}}"),
            ),
            Err(e) if is_enospc(&e) => {
                // Out of disk: shed with 507 + Retry-After instead of
                // accepting a submission whose durability cannot be
                // promised. Nothing partial remains admitted in memory;
                // an orphan meta.json (if the failure hit mid-register)
                // is re-adopted by a later incarnation once space
                // returns.
                let backlog = self.total_backlog();
                self.shed(507, "Insufficient Storage", "out of disk space", backlog)
            }
            Err(_) => Response::json(
                500,
                "Internal Server Error",
                "{\"error\":\"cannot persist campaign\"}",
            ),
        }
    }

    fn status(&self, id: &str) -> Response {
        let Some(out) = self.outcome_of(id) else {
            return Response::json(404, "Not Found", "{\"error\":\"no such campaign\"}");
        };
        let c = &self.campaigns[self.index[id]];
        Response::json(
            200,
            "OK",
            format!(
                "{{\"campaign\":\"{id}\",\"tenant\":\"{}\",\"total\":{},\"completed\":{},\
                 \"abandoned\":{},\"done\":{}}}",
                c.tenant, out.total, out.completed, out.abandoned, c.done
            ),
        )
    }

    fn results(&self, id: &str) -> Response {
        let Some(&idx) = self.index.get(id) else {
            return Response::json(404, "Not Found", "{\"error\":\"no such campaign\"}");
        };
        let c = &self.campaigns[idx];
        let mut items: Vec<String> = Vec::new();
        for task in c.tasks.iter() {
            let Ok(key) = task_key(task) else { continue };
            if let Some(r) = c.service.results().get(&key) {
                let v = M::result_json(r);
                items.push(serde_json::to_string(&v).unwrap_or_else(|_| "null".into()));
            }
        }
        Response::json(
            200,
            "OK",
            format!(
                "{{\"campaign\":\"{id}\",\"done\":{},\"results\":[{}]}}",
                c.done,
                items.join(",")
            ),
        )
    }

    /// Advances up to `budget` cells. Each DRR grant drives one batch
    /// of up to `cfg.threads` cells of the granted tenant's campaign,
    /// executed concurrently on the gateway's `cpc-pool` executor and
    /// committed in task order — at the default `threads = 1` this is
    /// exactly the old serial one-cell-per-grant pump, and at any
    /// thread count the campaign journals are byte-identical. Returns
    /// how many cells advanced and whether the injected kill fired
    /// (after which the gateway refuses further work, modelling the
    /// dead process). This is `loop { begin; run; finish }`, the same
    /// loop [`Self::pump_shared`] runs.
    pub fn pump(&mut self, budget: usize) -> PumpReport {
        Self::pump_loop(self, budget, |gw, ticket| {
            ticket.run();
            gw
        })
    }

    /// [`pump`](Self::pump) for a gateway shared behind a mutex: the
    /// lock is held for [`Self::begin`] and [`Self::finish`] (one hold
    /// covers a `finish` and the next `begin`) and released while the
    /// ticket runs, so requests are answered between any two cells of
    /// a burst instead of after its last.
    pub fn pump_shared(gw: &Mutex<Self>, budget: usize) -> PumpReport {
        let lock = || gw.lock().expect("gateway lock");
        Self::pump_loop(lock(), budget, |held, ticket| {
            drop(held);
            ticket.run();
            lock()
        })
    }

    /// The one pump loop, over an exclusive borrow or a mutex guard.
    /// `run` executes the ticket and returns the access it was lent —
    /// or a fresh one, having given the gateway up meanwhile.
    fn pump_loop<G: DerefMut<Target = Self>>(
        mut gw: G,
        budget: usize,
        mut run: impl FnMut(G, &mut Ticket<M>) -> G,
    ) -> PumpReport {
        let mut report = PumpReport::default();
        // Bounded by grants, not cells: a batch that advances nothing
        // (every cell dead-lettered mid-batch) must not spin forever.
        for _ in 0..budget {
            if report.granted >= budget || report.killed {
                break;
            }
            let mut ticket = match gw.begin(budget - report.granted) {
                Begun::Idle => break,
                Begun::Dead => {
                    report.killed = true;
                    break;
                }
                Begun::Skipped => continue,
                Begun::Ticket(ticket) => ticket,
            };
            loop {
                gw = run(gw, &mut ticket);
                match gw.finish(ticket, &mut report) {
                    Some(again) => ticket = again,
                    None => break,
                }
            }
        }
        report
    }

    /// First critical section of one pump iteration: the DRR grant,
    /// revival of the granted campaign if a storage failure stalled
    /// it, and the collect phase of its next batch — at most `width`
    /// cells, and never more than the pool is wide. Nothing executes
    /// here; the cells run on the returned ticket.
    pub fn begin(&mut self, width: usize) -> Begun<M> {
        assert!(!self.ticket_out, "begin() with a ticket still out");
        if self.dead {
            return Begun::Dead;
        }
        let Gateway {
            sched, campaigns, ..
        } = self;
        let Some(tenant) = sched.grant(|t| Self::backlog_of(campaigns, t)) else {
            return Begun::Idle;
        };
        let Some(idx) = self
            .campaigns
            .iter()
            .position(|c| c.tenant == tenant && !c.done)
        else {
            return Begun::Skipped;
        };
        // A stalled campaign is revived by reopening its service
        // from disk — never by trusting the in-memory instance
        // that saw the storage failure (its journal may be
        // poisoned; per the fsyncgate policy a retried fsync would
        // lie). If the disk is still sick the reopen fails and the
        // campaign stays quiesced for a later pump.
        if self.campaigns[idx].stalled {
            let Ok(service) =
                self.open_service(&self.campaigns[idx].id, &self.campaigns[idx].tasks)
            else {
                return Begun::Skipped;
            };
            self.stats.revives += 1;
            let c = &mut self.campaigns[idx];
            c.done = Self::settled(&service.outcome());
            c.service = service;
            c.stalled = false;
            if c.done {
                return Begun::Skipped;
            }
        }
        let campaign = &mut self.campaigns[idx];
        let width = self.pool.threads().min(width).max(1);
        match campaign.service.collect_batch(&campaign.tasks, width) {
            Ok(batch) => {
                self.ticket_out = true;
                Begun::Ticket(Ticket {
                    campaign: campaign.id.clone(),
                    batch,
                    tasks: Arc::clone(&campaign.tasks),
                    model: Arc::clone(&self.model),
                    pool: self.pool.clone(),
                })
            }
            Err(_) => {
                self.stall(idx);
                Begun::Skipped
            }
        }
    }

    /// Second critical section: settles the ticket's batch into its
    /// campaign — the walk-order commit, RTT samples in commit order,
    /// the `done`/`stalled`/`dead` transitions — adding what it
    /// advanced to `report`. Returns the ticket when panicked cells
    /// were re-leased and it must [`Ticket::run`] again first.
    pub fn finish(&mut self, mut ticket: Ticket<M>, report: &mut PumpReport) -> Option<Ticket<M>> {
        let idx = self.index[&ticket.campaign];
        let campaign = &mut self.campaigns[idx];
        let settled = match campaign.service.settle_batch(ticket.batch) {
            Ok(Settled::Rerun(batch)) => {
                ticket.batch = batch;
                return Some(ticket);
            }
            Ok(Settled::Done(b)) => Some(b),
            Err(_) => None,
        };
        self.ticket_out = false;
        let Some(b) = settled else {
            self.stall(idx);
            return None;
        };
        report.granted += b.advanced;
        // Per-cell costs feed the shed-back-pressure estimator
        // exactly like RTT samples, in commit order (cache hits cost
        // nothing, as before).
        for &cost in &b.exec_costs {
            self.rtt.observe(cost.max(1e-6));
        }
        match b.step {
            StepOutcome::Progress => {
                // The batch that completes the last cell leaves the
                // queue drained with zero backlog; without marking it
                // done here the scheduler would never grant the
                // campaign again and it would idle forever.
                if Self::settled(&campaign.service.outcome()) {
                    campaign.done = true;
                }
            }
            StepOutcome::Drained => campaign.done = true,
            StepOutcome::Killed => {
                self.dead = true;
                report.killed = true;
            }
        }
        None
    }

    /// A storage failure mid-batch (ENOSPC, EIO, failed fsync):
    /// quiesce the campaign. It is NOT done — marking it done would
    /// silently drop every unfinished cell. The durable state on disk
    /// decides what re-runs when a later pump revives the service,
    /// and because recovery is construction, the resumed artifact is
    /// byte-identical to an unfaulted run's.
    fn stall(&mut self, idx: usize) {
        self.campaigns[idx].stalled = true;
        self.stats.stalls += 1;
    }

    /// True when every registered campaign has drained.
    pub fn all_done(&self) -> bool {
        self.campaigns.iter().all(|c| c.done)
    }

    /// Campaigns currently quiesced by a storage failure, awaiting
    /// revival.
    pub fn stalled_count(&self) -> usize {
        self.campaigns.iter().filter(|c| c.stalled).count()
    }

    /// Whether campaign `id` is quiesced right now. Its in-memory
    /// service is dead — the grant that revives the campaign replaces
    /// it, counters and all — so a chaos driver that wants those
    /// counters must read them while this still answers true.
    pub fn is_stalled(&self, id: &str) -> bool {
        self.index
            .get(id)
            .is_some_and(|&i| self.campaigns[i].stalled)
    }

    /// Rebuilds the pump executor with an adversarial-schedule
    /// injector armed (chaos harness): worker pauses and injected
    /// panics now land inside the gateway's own pump batches.
    /// The injector's counters are shared, so one `SchedChaos` can
    /// span every incarnation of a composed schedule.
    pub fn arm_sched_chaos(&mut self, chaos: std::sync::Arc<SchedChaos>) {
        self.pool = Pool::new(self.cfg.threads.max(1)).with_chaos(chaos);
    }

    /// Replaces the pump executor with one of `threads` workers
    /// (chaos harness: a mid-campaign thread-count change), keeping
    /// `chaos` armed when given. Batch width follows the new count.
    pub fn swap_pool(&mut self, threads: usize, chaos: Option<std::sync::Arc<SchedChaos>>) {
        self.cfg.threads = threads.max(1);
        let pool = Pool::new(self.cfg.threads);
        self.pool = match chaos {
            Some(c) => pool.with_chaos(c),
            None => pool,
        };
    }

    /// The pump executor — exposed so chaos drivers can absorb its
    /// task/panic counters and probe post-chaos reusability.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The filesystem this gateway runs on.
    pub fn fs(&self) -> &SharedFs {
        &self.fs
    }

    /// True after `POST /drain`.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// True after the injected kill fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Connection/request accounting.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Registered campaign ids in registration order.
    pub fn campaign_ids(&self) -> Vec<String> {
        self.campaigns.iter().map(|c| c.id.clone()).collect()
    }

    /// The service outcome snapshot of one campaign.
    pub fn outcome_of(&self, id: &str) -> Option<ServiceOutcome> {
        self.index
            .get(id)
            .map(|&i| self.campaigns[i].service.outcome())
    }

    /// The committed result keys of one campaign. The underlying
    /// service records a result only after its journal append has
    /// been fsynced, so every key returned here is durably
    /// acknowledged — chaos drivers replay this set across restarts
    /// for the acked-then-lost oracle.
    pub fn result_keys(&self, id: &str) -> Option<Vec<String>> {
        self.index.get(id).map(|&i| {
            self.campaigns[i]
                .service
                .results()
                .keys()
                .cloned()
                .collect()
        })
    }

    /// The gateway configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{http_get, http_post, ScriptedConn};
    use crate::demo::{demo_cells, DemoModel};
    use cpc_workload::service::artifact_digest;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-gateway-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(root: &PathBuf) -> Gateway<DemoModel> {
        let mut cfg = GatewayConfig::new(root, "demo");
        cfg.policy.max_pending_cells = 10;
        Gateway::open(cfg, DemoModel).unwrap()
    }

    fn send<M: CampaignModel>(gw: &mut Gateway<M>, bytes: Vec<u8>) -> ScriptedConn {
        let mut conn = ScriptedConn::request(bytes);
        gw.handle(&mut conn);
        conn
    }

    fn submit_body(tenant: &str, cells: &str) -> Vec<u8> {
        http_post(
            "/campaigns",
            &format!("{{\"tenant\":\"{tenant}\",\"cells\":{cells}}}"),
        )
    }

    #[test]
    fn submit_pump_status_results_roundtrip() {
        let root = tmp_dir("roundtrip");
        let mut gw = open(&root);
        let conn = send(&mut gw, submit_body("alice", &demo_cells(5)));
        assert_eq!(conn.response_status(), Some(201));
        let body: Value =
            serde_json::from_str(&conn.response_body().unwrap()).expect("submit response JSON");
        let id = body["campaign"].as_str().unwrap().to_string();
        assert_eq!(id, campaign_id("alice", "demo", &demo_cells(5)));

        let conn = send(&mut gw, http_get(&format!("/campaigns/{id}")));
        assert!(conn.response_body().unwrap().contains("\"done\":false"));

        while !gw.all_done() {
            assert!(gw.pump(4).granted > 0 || gw.all_done());
        }
        let conn = send(&mut gw, http_get(&format!("/campaigns/{id}")));
        let status = conn.response_body().unwrap();
        assert!(status.contains("\"completed\":5") && status.contains("\"done\":true"));

        let conn = send(&mut gw, http_get(&format!("/campaigns/{id}/results")));
        let results: Value = serde_json::from_str(&conn.response_body().unwrap()).unwrap();
        let items = results["results"].as_array().unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[3][1].as_f64(), Some(9.0), "cell 3 yields [3, 9]");

        // Health endpoints and unknown routes.
        assert_eq!(
            send(&mut gw, http_get("/healthz")).response_status(),
            Some(200)
        );
        assert_eq!(
            send(&mut gw, http_get("/readyz")).response_status(),
            Some(200)
        );
        assert_eq!(
            send(&mut gw, http_get("/nope")).response_status(),
            Some(404)
        );
        assert_eq!(
            send(&mut gw, http_get("/campaigns/ffffffffffffffff")).response_status(),
            Some(404)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pooled_pump_is_byte_identical_to_serial_across_thread_counts() {
        // Serial (threads = 1) reference journal through the gateway.
        let ref_root = tmp_dir("pump-pool-ref");
        let mut gw = open(&ref_root);
        let conn = send(&mut gw, submit_body("alice", &demo_cells(9)));
        assert_eq!(conn.response_status(), Some(201));
        let id = campaign_id("alice", "demo", &demo_cells(9));
        while !gw.all_done() {
            assert!(gw.pump(4).granted > 0 || gw.all_done());
        }
        let want = artifact_digest(gw.config().campaign_journal(&id));
        assert!(want.is_some());
        drop(gw);

        for threads in [2usize, 4, 8] {
            let root = tmp_dir(&format!("pump-pool-{threads}"));
            let mut cfg = GatewayConfig::new(&root, "demo");
            cfg.policy.max_pending_cells = 10;
            cfg.threads = threads;
            let mut gw = Gateway::open(cfg, DemoModel).unwrap();
            let conn = send(&mut gw, submit_body("alice", &demo_cells(9)));
            assert_eq!(conn.response_status(), Some(201));
            let mut pumps = 0usize;
            while !gw.all_done() {
                let r = gw.pump(9);
                assert!(r.granted > 0 || gw.all_done());
                pumps += 1;
                assert!(pumps < 100, "threads={threads}: pump never drains");
            }
            assert_eq!(
                artifact_digest(gw.config().campaign_journal(&id)),
                want,
                "threads={threads}: gateway journal must be byte-identical to serial"
            );
            let outcome = gw.outcome_of(&id).unwrap();
            assert_eq!((outcome.completed, outcome.executed), (9, 9));
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&ref_root);
    }

    #[test]
    fn retried_submission_deduplicates_instead_of_double_executing() {
        let root = tmp_dir("dedup");
        let mut gw = open(&root);
        assert_eq!(
            send(&mut gw, submit_body("alice", &demo_cells(4))).response_status(),
            Some(201)
        );
        gw.pump(2);
        let conn = send(&mut gw, submit_body("alice", &demo_cells(4)));
        assert_eq!(conn.response_status(), Some(200));
        assert!(conn
            .response_body()
            .unwrap()
            .contains("\"deduplicated\":true"));
        while !gw.all_done() {
            gw.pump(4);
        }
        let id = campaign_id("alice", "demo", &demo_cells(4));
        assert_eq!(
            gw.campaign_ids().len(),
            1,
            "the retry registers nothing new"
        );
        let out = gw.outcome_of(&id).unwrap();
        assert_eq!(out.executed, 4, "each cell ran exactly once, never twice");
        assert_eq!(out.completed, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn overloaded_tenant_is_shed_with_retry_after_and_drain_closes_admission() {
        let root = tmp_dir("shed");
        let mut gw = open(&root); // max_pending_cells = 10
        assert_eq!(
            send(&mut gw, submit_body("bob", &demo_cells(8))).response_status(),
            Some(201)
        );
        // 8 pending + 5 more would cross the bound of 10: shed.
        let conn = send(&mut gw, submit_body("bob", "[100,101,102,103,104]"));
        assert_eq!(conn.response_status(), Some(429));
        let retry: u64 = conn
            .response_header("Retry-After")
            .unwrap()
            .parse()
            .unwrap();
        assert!((1..=120).contains(&retry));
        // Another tenant is unaffected by bob's backlog.
        assert_eq!(
            send(&mut gw, submit_body("carol", "[200,201]")).response_status(),
            Some(201)
        );
        // Drain: readiness and new submissions shed with 503.
        assert_eq!(
            send(&mut gw, http_post("/drain", "{}")).response_status(),
            Some(200)
        );
        let conn = send(&mut gw, http_get("/readyz"));
        assert_eq!(conn.response_status(), Some(503));
        assert!(conn.response_header("Retry-After").is_some());
        assert_eq!(
            send(&mut gw, submit_body("dave", "[300]")).response_status(),
            Some(503)
        );
        // In-flight campaigns still complete under drain.
        while !gw.all_done() {
            assert!(gw.pump(8).granted > 0 || gw.all_done());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_submissions_get_typed_400s() {
        let root = tmp_dir("invalid");
        let mut gw = open(&root);
        for body in [
            "not json",
            "{\"cells\":[1]}",
            "{\"tenant\":\"x y\",\"cells\":[1]}",
            "{\"tenant\":\"ok\"}",
            "{\"tenant\":\"ok\",\"cells\":\"nope\"}",
            "{\"tenant\":\"ok\",\"cells\":[]}",
            "{\"tenant\":\"ok\",\"cells\":[-3]}",
        ] {
            let conn = send(&mut gw, http_post("/campaigns", body));
            assert_eq!(conn.response_status(), Some(400), "body {body:?}");
        }
        assert_eq!(gw.stats().rejected, 7);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_under_enospc_sheds_507_with_retry_after_then_recovers() {
        use cpc_vfs::SimFs;
        use std::sync::Arc;
        let fs = Arc::new(SimFs::new());
        let mut cfg = GatewayConfig::new("gw", "demo");
        cfg.policy.max_pending_cells = 10;
        let mut gw = Gateway::open_on(fs.clone(), cfg, DemoModel).unwrap();

        fs.set_enospc(true);
        let conn = send(&mut gw, submit_body("alice", &demo_cells(3)));
        assert_eq!(
            conn.response_status(),
            Some(507),
            "full disk sheds, not 500s"
        );
        let retry: u64 = conn
            .response_header("Retry-After")
            .expect("507 carries Retry-After")
            .parse()
            .unwrap();
        assert!((1..=120).contains(&retry));
        assert_eq!(gw.stats().shed, 1);
        assert_eq!(gw.campaign_ids().len(), 0, "nothing half-admitted");

        // Space returns: the identical submission is accepted and runs.
        fs.set_enospc(false);
        let conn = send(&mut gw, submit_body("alice", &demo_cells(3)));
        assert_eq!(conn.response_status(), Some(201));
        while !gw.all_done() {
            assert!(gw.pump(4).granted > 0 || gw.all_done());
        }
        let id = campaign_id("alice", "demo", &demo_cells(3));
        assert_eq!(gw.outcome_of(&id).unwrap().completed, 3);
    }

    #[test]
    fn enospc_mid_pump_quiesces_then_resumes_byte_identical() {
        use cpc_vfs::SimFs;
        use cpc_workload::service::artifact_digest_on;
        // Reference: the same campaign driven with no faults.
        let ref_fs = Arc::new(SimFs::new());
        let mut gw =
            Gateway::open_on(ref_fs.clone(), GatewayConfig::new("gw", "demo"), DemoModel).unwrap();
        assert_eq!(
            send(&mut gw, submit_body("alice", &demo_cells(6))).response_status(),
            Some(201)
        );
        while !gw.all_done() {
            gw.pump(4);
        }
        let id = campaign_id("alice", "demo", &demo_cells(6));
        let journal = gw.config().campaign_journal(&id);
        let want = artifact_digest_on(ref_fs.as_ref(), &journal);
        assert!(want.is_some());

        // Faulted runs: the disk fills after two cells complete —
        // before the next `begin`, or between a `begin` that leased on
        // a healthy disk and its `finish`.
        for between_phases in [false, true] {
            let fs = Arc::new(SimFs::new());
            let mut gw =
                Gateway::open_on(fs.clone(), GatewayConfig::new("gw", "demo"), DemoModel).unwrap();
            assert_eq!(
                send(&mut gw, submit_body("alice", &demo_cells(6))).response_status(),
                Some(201)
            );
            gw.pump(2);
            let r = if between_phases {
                let Begun::Ticket(mut ticket) = gw.begin(4) else {
                    panic!("a healthy disk leases a batch");
                };
                ticket.run();
                fs.set_enospc(true);
                let mut r = PumpReport::default();
                assert!(gw.finish(ticket, &mut r).is_none());
                r
            } else {
                fs.set_enospc(true);
                gw.pump(4)
            };
            assert_eq!(r.granted, 0, "no progress on a full disk");
            assert!(!gw.all_done(), "quiesced, never falsely done");
            assert_eq!(
                gw.stalled_count(),
                1,
                "the campaign stalls instead of dying"
            );
            // Pumping while still full keeps it quiesced without panicking.
            gw.pump(4);
            assert_eq!(gw.stalled_count(), 1);

            // Space returns: revival drains to the byte-identical artifact.
            fs.set_enospc(false);
            while !gw.all_done() {
                assert!(gw.pump(4).granted > 0 || gw.all_done());
            }
            assert_eq!(gw.stalled_count(), 0);
            assert_eq!(
                artifact_digest_on(fs.as_ref(), &journal),
                want,
                "resume after ENOSPC must be byte-identical to the unfaulted run"
            );
            let out = gw.outcome_of(&id).unwrap();
            assert_eq!(out.completed, 6);
        }
    }

    /// The direct (no gateway) journal digest of a demo campaign.
    fn direct_digest(tag: &str, n: u64) -> Option<u64> {
        let dir = tmp_dir(tag);
        let scfg = ServiceConfig::new(&dir, "demo");
        let journal = scfg.journal_path();
        let mut svc = JobService::<Vec<f64>>::open(scfg, DemoModel::key_of).unwrap();
        let tasks: Vec<u64> = (0..n).collect();
        svc.run(&tasks, |t| DemoModel.exec(t)).unwrap();
        drop(svc);
        let digest = artifact_digest(&journal);
        let _ = std::fs::remove_dir_all(&dir);
        digest
    }

    #[test]
    fn kill_resume_through_the_gateway_is_byte_identical_to_direct() {
        let want_alice = direct_digest("gwkill-ref-a", 6);
        let want_bob = direct_digest("gwkill-ref-b", 2);
        assert!(want_alice.is_some() && want_bob.is_some());
        let alice = campaign_id("alice", "demo", &demo_cells(6));
        let bob = campaign_id("bob", "demo", &demo_cells(2));

        for (tag, point) in [
            ("mid", KillPoint::MidCommit),
            ("before", KillPoint::BeforeResult),
        ] {
            // Gateway incarnation killed at its 3rd fresh cell, driven
            // phase by phase with a submission landing between every
            // `begin` and its `finish` — the first one registers bob
            // while alice's cell is leased, the rest deduplicate.
            let root = tmp_dir(&format!("gwkill-{tag}"));
            let mut cfg = GatewayConfig::new(&root, "demo");
            cfg.kill = Some((3, point));
            let mut gw = Gateway::open(cfg, DemoModel).unwrap();
            assert_eq!(
                send(&mut gw, submit_body("alice", &demo_cells(6))).response_status(),
                Some(201)
            );
            let mut report = PumpReport::default();
            for _ in 0..32 {
                let Begun::Ticket(mut ticket) = gw.begin(4) else {
                    break;
                };
                ticket.run();
                let conn = send(&mut gw, submit_body("bob", &demo_cells(2)));
                assert!(matches!(conn.response_status(), Some(200 | 201)));
                assert!(gw.finish(ticket, &mut report).is_none());
                if report.killed {
                    break;
                }
            }
            assert!(report.killed, "{tag}: the injected kill fires in finish");
            assert!(matches!(gw.begin(4), Begun::Dead));
            drop(gw); // SIGKILL: durable state is already synced.

            // Next incarnation recovers from meta.json alone — the
            // clients never resubmit — and drains to byte-identical
            // artifacts.
            let mut gw = Gateway::open(GatewayConfig::new(&root, "demo"), DemoModel).unwrap();
            let mut ids = vec![alice.clone(), bob.clone()];
            ids.sort();
            assert_eq!(gw.campaign_ids(), ids, "{tag}: meta.json recovery");
            while !gw.all_done() {
                assert!(
                    gw.pump(8).granted > 0 || gw.all_done(),
                    "{tag}: resume makes progress"
                );
            }
            assert_eq!(
                artifact_digest(gw.config().campaign_journal(&alice)),
                want_alice,
                "{tag}"
            );
            assert_eq!(
                artifact_digest(gw.config().campaign_journal(&bob)),
                want_bob,
                "{tag}"
            );
            let conn = send(&mut gw, http_get(&format!("/campaigns/{alice}")));
            assert!(conn.response_body().unwrap().contains("\"done\":true"));
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// [`DemoModel`] with two switches the split-phase tests need: a
    /// gate that parks the first execution on channels the test
    /// holds, and a one-shot panic on one cell.
    struct TrapModel {
        /// Armed: the next execution announces itself on `entered`
        /// and blocks until `release` yields.
        gate: AtomicBool,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
        /// Armed: the next execution of cell 2 panics.
        bomb: AtomicBool,
    }

    impl TrapModel {
        fn new(gate: bool, bomb: bool) -> (Self, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (entered, entered_rx) = mpsc::channel();
            let (release_tx, release) = mpsc::channel();
            let model = TrapModel {
                gate: AtomicBool::new(gate),
                entered: Mutex::new(entered),
                release: Mutex::new(release),
                bomb: AtomicBool::new(bomb),
            };
            (model, entered_rx, release_tx)
        }
    }

    impl CampaignModel for TrapModel {
        type Task = u64;
        type Result = Vec<f64>;

        fn parse_cells(&self, cells: &Value) -> Result<Vec<u64>, String> {
            DemoModel.parse_cells(cells)
        }
        fn key_of(r: &Vec<f64>) -> String {
            DemoModel::key_of(r)
        }
        fn exec(&self, task: &u64) -> (Vec<f64>, f64) {
            if self.gate.swap(false, Ordering::SeqCst) {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            if *task == 2 && self.bomb.swap(false, Ordering::SeqCst) {
                panic!("cell 2 panics once");
            }
            DemoModel.exec(task)
        }
    }

    #[test]
    fn the_gateway_lock_is_free_while_a_ticket_runs() {
        // The same script through plain `pump`: the journals to match.
        let ref_root = tmp_dir("split-ref");
        let mut gw = open(&ref_root);
        send(&mut gw, submit_body("alice", &demo_cells(5)));
        gw.pump(1);
        send(&mut gw, submit_body("bob", &demo_cells(3)));
        send(&mut gw, http_post("/drain", "{}"));
        while !gw.all_done() {
            assert!(gw.pump(4).granted > 0 || gw.all_done());
        }
        let alice = campaign_id("alice", "demo", &demo_cells(5));
        let bob = campaign_id("bob", "demo", &demo_cells(3));
        let want: Vec<_> = [&alice, &bob]
            .map(|id| artifact_digest(gw.config().campaign_journal(id)))
            .into();
        assert!(want.iter().all(Option::is_some));
        drop(gw);

        let root = tmp_dir("split");
        let (model, entered, release) = TrapModel::new(true, false);
        let mut cfg = GatewayConfig::new(&root, "demo");
        cfg.policy.max_pending_cells = 10;
        let limits = cfg.limits.clone();
        let gw = Mutex::new(Gateway::open(cfg, model).unwrap());
        let request = |bytes: Vec<u8>| {
            let mut conn = ScriptedConn::request(bytes);
            Gateway::handle_shared(&gw, &limits, &mut conn);
            (conn.response_status(), conn.response_body().unwrap())
        };
        assert_eq!(request(submit_body("alice", &demo_cells(5))).0, Some(201));

        let Begun::Ticket(mut ticket) = gw.lock().unwrap().begin(4) else {
            panic!("a backlogged tenant is granted a ticket");
        };
        let mut report = PumpReport::default();
        std::thread::scope(|s| {
            let running = s.spawn(|| ticket.run());
            // The first cell is executing — parked, until released —
            // and every route answers on this thread meanwhile.
            entered.recv().unwrap();
            assert_eq!(request(http_get("/healthz")).0, Some(200));
            let (status, body) = request(http_get(&format!("/campaigns/{alice}")));
            assert_eq!(status, Some(200));
            assert!(
                body.contains("\"completed\":0") && body.contains("\"done\":false"),
                "a mid-ticket status reports the pre-commit state: {body}"
            );
            let (status, body) = request(http_get(&format!("/campaigns/{alice}/results")));
            assert_eq!(status, Some(200));
            assert!(body.contains("\"results\":[]"), "{body}");
            assert_eq!(request(submit_body("bob", &demo_cells(3))).0, Some(201));
            assert_eq!(request(http_post("/drain", "{}")).0, Some(200));
            assert!(!running.is_finished(), "the cell is still parked");
            release.send(()).unwrap();
            running.join().unwrap();
        });
        assert!(gw.lock().unwrap().finish(ticket, &mut report).is_none());
        assert_eq!(report.granted, 1);
        let (_, body) = request(http_get(&format!("/campaigns/{alice}")));
        assert!(body.contains("\"completed\":1"), "{body}");

        while !gw.lock().unwrap().all_done() {
            assert!(Gateway::pump_shared(&gw, 4).granted > 0);
        }
        let gw = gw.into_inner().unwrap();
        let got: Vec<_> = [&alice, &bob]
            .map(|id| artifact_digest(gw.config().campaign_journal(id)))
            .into();
        assert_eq!(got, want, "split phases must not move a byte");
        let stats = gw.stats();
        assert_eq!(stats.conns_opened, stats.conns_closed);
        let _ = std::fs::remove_dir_all(&ref_root);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_cell_that_panics_once_is_re_executed_through_the_lease_path() {
        let want = direct_digest("panic-ref", 6);
        let id = campaign_id("alice", "demo", &demo_cells(6));
        for threads in [1usize, 4] {
            let root = tmp_dir(&format!("panic-{threads}"));
            let (model, _entered, _release) = TrapModel::new(false, true);
            let mut cfg = GatewayConfig::new(&root, "demo");
            cfg.threads = threads;
            let mut gw = Gateway::open(cfg, model).unwrap();
            assert_eq!(
                send(&mut gw, submit_body("alice", &demo_cells(6))).response_status(),
                Some(201)
            );
            let gw = Mutex::new(gw);
            while !gw.lock().unwrap().all_done() {
                assert!(Gateway::pump_shared(&gw, 8).granted > 0);
            }
            let gw = gw.into_inner().expect("a contained panic poisons nothing");
            let out = gw.outcome_of(&id).unwrap();
            assert_eq!(out.panicked, 1, "threads={threads}");
            assert!(out.panic_reclaimed >= 1, "threads={threads}");
            assert_eq!((out.completed, out.executed), (6, 6));
            assert_eq!(gw.pool().stats().panics_caught, 1);
            assert_eq!(
                artifact_digest(gw.config().campaign_journal(&id)),
                want,
                "threads={threads}: a contained panic must not move a byte"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
