//! Transport-level chaos for the gateway: a scripted connection that
//! plays hostile clients deterministically on a virtual clock, and
//! [`run_gateway_chaos`] — the driver that pushes a whole campaign
//! through the HTTP path under a sampled [`TransportFaultPlan`]
//! (malformed request lines, truncated bodies, slow readers,
//! mid-response disconnects, connection floods, `kill -9` of the
//! gateway itself) and convicts any violation of the gateway oracles:
//! no panic, no fd leak, no I/O past a deadline, no lost or
//! doubly-executed cell, byte-identical artifacts after kill-resume
//! through HTTP.

use crate::gateway::{campaign_id, CampaignModel, Gateway, GatewayConfig};
use crate::http::{Conn, HttpLimits};
use crate::tenancy::TenantPolicy;
use cpc_charmm::{check_gateway_ledger, GatewayLedger, GatewayViolation};
use cpc_cluster::{TransportFault, TransportFaultPlan};
use cpc_workload::service::{artifact_digest, JobService, KillPoint, ServiceConfig};
use serde_json::Value;
use std::io;
use std::path::PathBuf;

/// A deterministic scripted client connection: fixed request bytes
/// dripped at a configurable chunk size and per-read virtual delay,
/// an optional write budget after which the peer "disconnects", and
/// an overrun counter convicting any read issued after the deadline
/// already passed.
pub struct ScriptedConn {
    input: Vec<u8>,
    pos: usize,
    chunk: usize,
    delay: f64,
    clock: f64,
    deadline: f64,
    write_budget: Option<usize>,
    written: Vec<u8>,
    overruns: usize,
}

impl ScriptedConn {
    /// A well-behaved connection delivering `bytes` as fast as asked.
    pub fn request(bytes: Vec<u8>) -> Self {
        ScriptedConn {
            input: bytes,
            pos: 0,
            chunk: usize::MAX,
            delay: 0.0,
            clock: 0.0,
            deadline: f64::INFINITY,
            write_budget: None,
            written: Vec::new(),
            overruns: 0,
        }
    }

    /// Byte-dribbling client: at most `chunk` bytes per read, each
    /// read costing `delay` virtual seconds.
    pub fn dribble(mut self, chunk: usize, delay: f64) -> Self {
        self.chunk = chunk.max(1);
        self.delay = delay.max(0.0);
        self
    }

    /// Arms the overrun counter: reads issued once the virtual clock
    /// is past `deadline` are counted (they should never happen —
    /// the handler checks its deadline before every read).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = deadline;
        self
    }

    /// The peer vanishes after accepting `bytes` response bytes:
    /// writes beyond it fail with `BrokenPipe`.
    pub fn disconnect_after(mut self, bytes: usize) -> Self {
        self.write_budget = Some(bytes);
        self
    }

    /// Everything the gateway wrote before any disconnect.
    pub fn written(&self) -> &[u8] {
        &self.written
    }

    /// Reads issued after the deadline had already passed.
    pub fn overruns(&self) -> usize {
        self.overruns
    }

    /// Status code of the written response, if one was written.
    pub fn response_status(&self) -> Option<u16> {
        let text = std::str::from_utf8(&self.written).ok()?;
        let rest = text.strip_prefix("HTTP/1.1 ")?;
        rest.get(..3)?.parse().ok()
    }

    /// A response header's value, if present.
    pub fn response_header(&self, name: &str) -> Option<String> {
        let text = std::str::from_utf8(&self.written).ok()?;
        let head = text.split("\r\n\r\n").next()?;
        for line in head.split("\r\n").skip(1) {
            let (n, v) = line.split_once(':')?;
            if n.eq_ignore_ascii_case(name) {
                return Some(v.trim().to_string());
            }
        }
        None
    }

    /// The response body, if a complete response was written.
    pub fn response_body(&self) -> Option<String> {
        let text = std::str::from_utf8(&self.written).ok()?;
        let (_, body) = text.split_once("\r\n\r\n")?;
        Some(body.to_string())
    }
}

impl Conn for ScriptedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.clock > self.deadline + 1e-9 {
            self.overruns += 1;
        }
        self.clock += self.delay;
        if self.pos >= self.input.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.chunk).min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(budget) = self.write_budget {
            if self.written.len() + buf.len() > budget {
                let take = budget.saturating_sub(self.written.len());
                self.written.extend_from_slice(&buf[..take]);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "peer disconnected mid-response",
                ));
            }
        }
        self.written.extend_from_slice(buf);
        Ok(())
    }

    fn elapsed(&self) -> f64 {
        self.clock
    }
}

/// Renders a GET request.
pub fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

/// Renders a POST request with an exact `Content-Length`.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Everything a gateway chaos schedule produced.
#[derive(Debug, Clone)]
pub struct GatewayChaosReport {
    /// Cross-incarnation transport + cell accounting.
    pub ledger: GatewayLedger,
    /// Oracle violations (empty = the schedule passed).
    pub violations: Vec<GatewayViolation>,
    /// The canonical campaign's content address.
    pub campaign: String,
}

impl GatewayChaosReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn io_err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

pub(crate) fn kill_point(point: u8) -> KillPoint {
    match point % 3 {
        0 => KillPoint::BeforeResult,
        1 => KillPoint::MidCommit,
        _ => KillPoint::AfterCommit,
    }
}

/// One connection through the gateway with panic containment; panics
/// and deadline overruns are charged to the ledger, and the connection
/// is returned for response inspection.
pub(crate) fn drive<M: CampaignModel>(
    gw: &mut Gateway<M>,
    mut conn: ScriptedConn,
    ledger: &mut GatewayLedger,
) -> ScriptedConn {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gw.handle(&mut conn)));
    if outcome.is_err() {
        ledger.panics += 1;
    }
    ledger.deadline_overruns += conn.overruns();
    conn
}

/// Folds one dying incarnation's stats and canonical-campaign
/// execution counters into the ledger. Call exactly once per
/// incarnation, just before dropping the gateway.
fn absorb<M: CampaignModel>(ledger: &mut GatewayLedger, gw: &Gateway<M>, id: &str) {
    if let Some(out) = gw.outcome_of(id) {
        ledger.executed += out.executed;
        ledger.lost_executions += out.lost_executions;
    }
    let stats = gw.stats();
    ledger.conns_opened += stats.conns_opened;
    ledger.conns_closed += stats.conns_closed;
    ledger.requests += stats.requests;
    ledger.rejected += stats.rejected;
    ledger.shed += stats.shed;
}

/// Runs one campaign twice — an uninterrupted direct-path reference in
/// `dir/reference`, and a gateway-path run in `dir/gw` attacked by
/// `plan` — and checks the gateway oracles over the combined ledger.
///
/// `make_model` builds a fresh model per incarnation (reference,
/// every gateway incarnation). `cells_json` is the canonical cells
/// array of the campaign; `flood_cells(i)` renders the i-th distinct
/// flood campaign's cells (connection floods submit real, small,
/// distinct campaigns from a `flood` tenant so the per-tenant bound
/// actually sheds). Gateway kills end an incarnation exactly as
/// `SIGKILL` would — the process state is dropped, durable state
/// stays — and the next incarnation recovers from `meta.json` +
/// journals, with the client's retried POST deduplicating onto the
/// same campaign.
pub fn run_gateway_chaos<M, F>(
    dir: impl Into<PathBuf>,
    make_model: F,
    cells_json: &str,
    protocol: &str,
    plan: &TransportFaultPlan,
    flood_cells: &dyn Fn(usize) -> String,
) -> io::Result<GatewayChaosReport>
where
    M: CampaignModel,
    F: Fn() -> M,
{
    let dir = dir.into();
    let _ = std::fs::remove_dir_all(&dir);

    // Canonicalize the cells JSON exactly as the gateway will.
    let cells_value: Value =
        serde_json::from_str(cells_json).map_err(|e| io_err(format!("cells JSON: {e}")))?;
    let cells_canonical = serde_json::to_string(&cells_value).map_err(io_err)?;

    // Reference: the direct JobService path, no gateway, no faults.
    let ref_model = make_model();
    let tasks = ref_model.parse_cells(&cells_value).map_err(io_err)?;
    let ref_cfg = ServiceConfig::new(dir.join("reference"), protocol);
    let ref_journal = ref_cfg.journal_path();
    let mut reference = JobService::<M::Result>::open(ref_cfg, |r| M::key_of(r))?;
    reference.run(&tasks, |t| ref_model.exec(t))?;
    drop(reference);

    let mut ledger = GatewayLedger {
        total_cells: tasks.len(),
        reference_digest: artifact_digest(&ref_journal),
        ..GatewayLedger::default()
    };

    let submission = format!("{{\"tenant\":\"alice\",\"cells\":{cells_canonical}}}");
    let id = campaign_id("alice", protocol, &cells_canonical);
    let gw_root = dir.join("gw");
    let deadline = 8.0;
    let open_gw = |kill: Option<(usize, KillPoint)>| -> io::Result<Gateway<M>> {
        let mut cfg = GatewayConfig::new(&gw_root, protocol);
        cfg.limits = HttpLimits {
            deadline,
            ..HttpLimits::default()
        };
        cfg.policy = TenantPolicy {
            quantum: 2,
            max_pending_cells: tasks.len().max(4),
            aging_rounds: 4,
        };
        cfg.kill = kill;
        Gateway::open(cfg, make_model())
    };

    let mut gw = open_gw(None)?;
    ledger.incarnations = 1;
    drive(
        &mut gw,
        ScriptedConn::request(http_post("/campaigns", &submission)),
        &mut ledger,
    );

    let mut flood_counter = 0usize;
    for fault in &plan.faults {
        match *fault {
            TransportFault::MalformedRequest { variant } => {
                let bytes: Vec<u8> = match variant % 6 {
                    0 => b"GARBAGE BYTES WITHOUT STRUCTURE\r\n\r\n".to_vec(),
                    1 => b"GET /healthz\r\n\r\n".to_vec(),
                    2 => b"get / HTTP/1.1\r\n\r\n".to_vec(),
                    3 => b"GET / HTTP/9.9\r\n\r\n".to_vec(),
                    4 => format!("GET /{} HTTP/1.1\r\n\r\n", "u".repeat(4096)).into_bytes(),
                    _ => b"POST /campaigns HTTP/1.1\r\n\r\n".to_vec(),
                };
                drive(&mut gw, ScriptedConn::request(bytes), &mut ledger);
            }
            TransportFault::TruncatedBody { keep_frac } => {
                let full = http_post("/campaigns", &submission);
                let head_end = full
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map(|p| p + 4)
                    .unwrap_or(full.len());
                let body_len = full.len() - head_end;
                let keep = head_end + ((body_len as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
                drive(
                    &mut gw,
                    ScriptedConn::request(full[..keep.min(full.len())].to_vec()),
                    &mut ledger,
                );
            }
            TransportFault::SlowReader { chunk, delay } => {
                let conn = ScriptedConn::request(http_post("/campaigns", &submission))
                    .dribble(chunk, delay)
                    .with_deadline(deadline);
                drive(&mut gw, conn, &mut ledger);
            }
            TransportFault::MidResponseDisconnect { after } => {
                let conn = ScriptedConn::request(http_get(&format!("/campaigns/{id}")))
                    .disconnect_after(after);
                drive(&mut gw, conn, &mut ledger);
            }
            TransportFault::ConnectionFlood { conns } => {
                for _ in 0..conns {
                    let body = format!(
                        "{{\"tenant\":\"flood\",\"cells\":{}}}",
                        flood_cells(flood_counter)
                    );
                    flood_counter += 1;
                    let conn = drive(
                        &mut gw,
                        ScriptedConn::request(http_post("/campaigns", &body)),
                        &mut ledger,
                    );
                    // A shed flood submission must carry Retry-After.
                    if conn.response_status() == Some(429)
                        && conn.response_header("Retry-After").is_none()
                    {
                        // Surfaces as a deadline-class bookkeeping
                        // violation: a shed without back-pressure is a
                        // protocol bug.
                        ledger.panics += 1;
                    }
                }
            }
            TransportFault::GatewayKill { cells, point } => {
                // This incarnation dies; durable state survives.
                absorb(&mut ledger, &gw, &id);
                drop(gw);
                gw = open_gw(Some((cells.max(1), kill_point(point))))?;
                ledger.incarnations += 1;
                // The client's timed-out POST is retried: idempotent
                // dedup onto the recovered campaign.
                drive(
                    &mut gw,
                    ScriptedConn::request(http_post("/campaigns", &submission)),
                    &mut ledger,
                );
                loop {
                    let report = gw.pump(8);
                    if report.killed {
                        ledger.kills += 1;
                        break;
                    }
                    if report.granted == 0 {
                        break;
                    }
                }
                absorb(&mut ledger, &gw, &id);
                drop(gw);
                gw = open_gw(None)?;
                ledger.incarnations += 1;
                drive(
                    &mut gw,
                    ScriptedConn::request(http_post("/campaigns", &submission)),
                    &mut ledger,
                );
            }
        }
        // Interleave a little execution between faults so transport
        // damage lands on campaigns in every phase of progress.
        gw.pump(3);
    }

    // Graceful drain: stop admissions, finish everything in flight.
    drive(
        &mut gw,
        ScriptedConn::request(http_post("/drain", "{}")),
        &mut ledger,
    );
    drive(
        &mut gw,
        ScriptedConn::request(http_get("/readyz")),
        &mut ledger,
    );
    let mut guard = 0usize;
    while !gw.all_done() && guard < 100_000 {
        let report = gw.pump(16);
        guard += 1;
        if report.granted == 0 && !report.killed {
            break;
        }
    }
    drive(
        &mut gw,
        ScriptedConn::request(http_get(&format!("/campaigns/{id}"))),
        &mut ledger,
    );
    drive(
        &mut gw,
        ScriptedConn::request(http_get(&format!("/campaigns/{id}/results"))),
        &mut ledger,
    );

    if let Some(out) = gw.outcome_of(&id) {
        ledger.completed = out.completed;
        ledger.abandoned = out.abandoned;
    }
    absorb(&mut ledger, &gw, &id);
    ledger.artifact_digest = artifact_digest(gw.config().campaign_journal(&id));

    let violations = check_gateway_ledger(&ledger);
    Ok(GatewayChaosReport {
        ledger,
        violations,
        campaign: id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_cells, demo_flood_cells, DemoModel};
    use cpc_cluster::TransportFaultSpace;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-gwchaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn sampled_transport_schedules_uphold_every_gateway_oracle() {
        let space = TransportFaultSpace::new(6);
        for index in 0..10 {
            let plan = space.sample(23, index);
            let dir = tmp_dir(&format!("plan-{index}"));
            let report = run_gateway_chaos(
                &dir,
                || DemoModel,
                &demo_cells(6),
                "demo",
                &plan,
                &demo_flood_cells,
            )
            .unwrap();
            assert!(
                report.passed(),
                "schedule {index} ({:?}) violated: {:?}\nledger: {:?}",
                plan.faults,
                report.violations,
                report.ledger
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// [`DemoModel`] whose cells hold the pump inside a ticket's
    /// `run()` until one more connection has been handled (or no
    /// worker is left to handle one), so the concurrent driver's
    /// connections really land between `begin` and `finish`.
    struct GatedDemo {
        /// Connections handled to completion, all workers.
        handled: Arc<AtomicUsize>,
        /// Workers still running.
        live: Arc<AtomicUsize>,
        /// A cell is executing right now.
        in_exec: Arc<AtomicBool>,
        /// Cells released by a connection completing mid-run.
        landed: Arc<AtomicUsize>,
    }

    impl CampaignModel for GatedDemo {
        type Task = u64;
        type Result = Vec<f64>;

        fn parse_cells(&self, cells: &Value) -> Result<Vec<u64>, String> {
            DemoModel.parse_cells(cells)
        }
        fn key_of(r: &Vec<f64>) -> String {
            DemoModel::key_of(r)
        }
        fn exec(&self, task: &u64) -> (Vec<f64>, f64) {
            let seen = self.handled.load(Ordering::SeqCst);
            self.in_exec.store(true, Ordering::SeqCst);
            while self.live.load(Ordering::SeqCst) > 0
                && self.handled.load(Ordering::SeqCst) == seen
            {
                std::thread::yield_now();
            }
            if self.handled.load(Ordering::SeqCst) != seen {
                self.landed.fetch_add(1, Ordering::SeqCst);
            }
            self.in_exec.store(false, Ordering::SeqCst);
            DemoModel.exec(task)
        }
    }

    /// The fd-leak and deadline oracles extended to concurrent
    /// connections: several accept workers drive submissions, status
    /// polls and armed slowloris readers through one shared gateway
    /// via [`Gateway::handle_shared`] while the main thread pumps it
    /// through [`Gateway::pump_shared`] — each worker holds its poll
    /// back until a cell is executing, and each cell holds the pump
    /// inside `run()` until a connection completes, so requests land
    /// between `begin` and `finish` on every run of the test. Every
    /// connection must still be closed (opened == closed), no read may
    /// land past its deadline on any worker, concurrent identical
    /// submissions must deduplicate onto one campaign, and the drained
    /// artifact must match the direct single-connection reference byte
    /// for byte.
    #[test]
    fn concurrent_connections_leak_no_fds_and_hold_deadlines() {
        let dir = tmp_dir("concurrent");
        let protocol = "demo";
        let cells_value: Value = serde_json::from_str(&demo_cells(6)).unwrap();
        let cells_canonical = serde_json::to_string(&cells_value).unwrap();
        let submission = format!("{{\"tenant\":\"alice\",\"cells\":{cells_canonical}}}");
        let id = campaign_id("alice", protocol, &cells_canonical);
        let deadline = 8.0;

        const WORKERS: usize = 4;
        const CONNS_PER_WORKER: usize = 3;
        let handled = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(WORKERS));
        let in_exec = Arc::new(AtomicBool::new(false));
        let landed = Arc::new(AtomicUsize::new(0));
        let model = GatedDemo {
            handled: handled.clone(),
            live: live.clone(),
            in_exec: in_exec.clone(),
            landed: landed.clone(),
        };

        let mut cfg = GatewayConfig::new(dir.join("gw"), protocol);
        cfg.limits = HttpLimits {
            deadline,
            ..HttpLimits::default()
        };
        let limits = cfg.limits.clone();
        let gw = std::sync::Mutex::new(Gateway::open(cfg, model).unwrap());

        let overruns: usize = cpc_pool::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let (gw, limits) = (&gw, &limits);
                    let (handled, live, in_exec) = (&handled, &live, &in_exec);
                    let submission = submission.clone();
                    let id = id.clone();
                    s.spawn(move || {
                        let serve = |conn: &mut ScriptedConn| {
                            Gateway::handle_shared(gw, limits, conn);
                            handled.fetch_add(1, Ordering::SeqCst);
                        };
                        // Same submission from every worker: the race
                        // must deduplicate, never double-admit.
                        let mut conn = ScriptedConn::request(http_post("/campaigns", &submission));
                        serve(&mut conn);
                        assert!(
                            matches!(conn.response_status(), Some(200..=299)),
                            "submission must be admitted or deduplicated, got {:?}",
                            conn.response_status()
                        );
                        // A slowloris reader with the overrun counter
                        // armed: the handler must give up at the
                        // deadline without one read past it.
                        let mut slow = ScriptedConn::request(http_post("/campaigns", &submission))
                            .dribble(2, 1.0)
                            .with_deadline(deadline);
                        serve(&mut slow);
                        // The poll waits for a ticket to be running.
                        while !in_exec.load(Ordering::SeqCst) && !gw.lock().unwrap().all_done() {
                            std::thread::yield_now();
                        }
                        let mut poll = ScriptedConn::request(http_get(&format!("/campaigns/{id}")));
                        serve(&mut poll);
                        assert_eq!(poll.response_status(), Some(200));
                        live.fetch_sub(1, Ordering::SeqCst);
                        slow.overruns()
                    })
                })
                .collect();
            while handles.iter().any(|h| !h.is_finished()) {
                Gateway::pump_shared(&gw, 8);
                std::thread::yield_now();
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(overruns, 0, "no read may be issued past its deadline");
        assert!(
            landed.load(Ordering::SeqCst) >= 1,
            "no connection completed while a ticket was running"
        );

        while !gw.lock().unwrap().all_done() {
            let report = Gateway::pump_shared(&gw, 8);
            if report.granted == 0 && !report.killed {
                break;
            }
        }
        let g = gw.lock().unwrap();
        let stats = g.stats();
        assert_eq!(
            stats.conns_opened,
            WORKERS * CONNS_PER_WORKER,
            "every connection is accounted"
        );
        assert_eq!(
            stats.conns_opened, stats.conns_closed,
            "fd leak: a concurrent connection was never closed"
        );
        let out = g.outcome_of(&id).expect("the deduplicated campaign exists");
        assert_eq!(out.completed, 6, "the shared campaign drains fully");
        assert_eq!(out.executed, 6, "racing submissions must not double-execute");

        // Byte-identity against the direct single-connection path.
        let ref_cfg = ServiceConfig::new(dir.join("reference"), protocol);
        let ref_journal = ref_cfg.journal_path();
        let mut reference =
            JobService::<<DemoModel as CampaignModel>::Result>::open(ref_cfg, |r| {
                <DemoModel as CampaignModel>::key_of(r)
            })
            .unwrap();
        let tasks = DemoModel.parse_cells(&cells_value).unwrap();
        reference.run(&tasks, |t| DemoModel.exec(t)).unwrap();
        drop(reference);
        assert_eq!(
            artifact_digest(g.config().campaign_journal(&id)),
            artifact_digest(&ref_journal),
            "concurrent admission must not move a byte of the artifact"
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_heavy_plan_survives_and_counts_its_incarnations() {
        let dir = tmp_dir("kills");
        let plan = TransportFaultPlan {
            faults: vec![
                TransportFault::GatewayKill { cells: 1, point: 1 },
                TransportFault::GatewayKill { cells: 2, point: 0 },
                TransportFault::GatewayKill { cells: 1, point: 2 },
            ],
        };
        let report = run_gateway_chaos(
            &dir,
            || DemoModel,
            &demo_cells(6),
            "demo",
            &plan,
            &demo_flood_cells,
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert!(
            report.ledger.incarnations >= 4,
            "each kill adds incarnations"
        );
        assert_eq!(report.ledger.completed, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
