//! The cross-layer chaos conductor: one serve-backed campaign driven
//! with **all five fault layers armed at once**.
//!
//! The single-layer harnesses each attack one seam in isolation —
//! [`run_gateway_chaos`](crate::run_gateway_chaos) the transport,
//! `run_service_chaos` the orchestrator, `run_disk_chaos` the disk,
//! `run_sched_chaos` the executor, and the MD harness the simulated
//! cluster. Real outages do not take turns. [`run_composed_chaos`]
//! runs one campaign on a simulated disk carrying a
//! [`DiskFaultPlan`](cpc_vfs::DiskFaultPlan), through a gateway whose
//! pool carries a `SchedFaultPlan`, attacked over the wire by a
//! `TransportFaultPlan` while an orchestrator-level
//! `ServiceFaultPlan` kills and tears it — and absorbs every layer's
//! accounting into one [`CrossLedger`] checked by
//! [`check_cross_ledger`]: the union of the single-layer oracles plus
//! the interaction oracles (acked-then-lost across disk fault ×
//! kill, the global execution bound, end-to-end byte identity) that
//! only a composed schedule can exercise.
//!
//! ## Accounting discipline
//!
//! * **Ground truth executions** come from a counting model wrapper:
//!   every `exec` across every incarnation, revival and flood
//!   campaign increments one shared counter
//!   ([`CrossLedger::executed_true`]). The composed license
//!   ([`CrossLedger::exec_allowance`]) grants `total_cells`, the
//!   flood campaigns' cells, one stranded batch (pool width) per
//!   abnormal boundary (incarnation, crash restart, I/O retry,
//!   ENOSPC lift, stall revival), and one re-execution per destroyed
//!   or dropped durable line, reclaimed lease, presented stale lease
//!   and injected panic.
//! * **Acked-then-lost** replays the committed result *keys* (the
//!   service records a key only after its journal append fsynced)
//!   across every reopen; a torn results journal legitimately
//!   destroys fsynced lines, so the replay set is rebuilt from the
//!   next recovery after that licensed damage.
//! * **Per-layer books** are filled from absorbed outcome snapshots
//!   (an incarnation's counters are read once, just before its
//!   gateway is dropped), so the single-layer oracles keep holding
//!   verbatim under composition; where a cross-layer fault creates a
//!   re-execution the single-layer book cannot see coming (a torn
//!   journal behind the gateway, a crash-stranded batch), the
//!   conductor adds the corresponding license term to that book.

use std::collections::HashSet;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cpc_charmm::{check_cross_ledger, CrossLedger, CrossViolation, ScheduleReport};
use cpc_cluster::{ComposedPlan, FaultPlan, ServiceFault, TransportFault, Layer, LAYERS};
use cpc_pool::{quiet_injected_panics, SchedChaos};
use cpc_vfs::{Fs, SharedFs, SimFs};
use cpc_workload::service::{artifact_digest_on, JobService, KillPoint, ServiceConfig};
use serde_json::Value;

use crate::chaos::{drive, http_get, http_post, kill_point, ScriptedConn};
use crate::gateway::{campaign_id, CampaignModel, Gateway, GatewayConfig, PumpReport};
use crate::http::HttpLimits;
use crate::tenancy::TenantPolicy;

/// Queue journal shards per campaign (the gateway default; the final
/// direct-service verification must reopen with the same layout).
const SHARDS: usize = 4;
/// Connection deadline, virtual seconds.
const DEADLINE: f64 = 8.0;
/// Retry budget for reopening the gateway / the final verification
/// service across disk faults.
const REOPEN_TRIES: usize = 12;
/// Total reopen fuel across the whole run (a backstop against a
/// pathological crash loop; sampled plans carry at most a handful of
/// power cuts).
const REOPEN_FUEL: usize = 64;

/// Everything one composed schedule produced: the unified cross-layer
/// ledger and the oracle verdicts over it.
#[derive(Debug, Clone)]
pub struct ComposedChaosReport {
    /// The unified ledger absorbed from every layer.
    pub ledger: CrossLedger,
    /// Oracle verdicts ([`check_cross_ledger`] over the ledger).
    pub violations: Vec<CrossViolation>,
    /// The campaign id the schedule attacked.
    pub campaign: String,
}

impl ComposedChaosReport {
    /// Whether every composed oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Model wrapper counting ground-truth executions. Injected pool
/// panics fire *before* the task closure runs, so a panicked attempt
/// never increments the counter — only its post-reclaim re-execution
/// does (which the allowance's `panics_injected` term licenses).
struct Counted<M: CampaignModel> {
    inner: M,
    executed: Arc<AtomicUsize>,
}

impl<M: CampaignModel> CampaignModel for Counted<M> {
    type Task = M::Task;
    type Result = M::Result;

    fn parse_cells(&self, cells: &Value) -> Result<Vec<Self::Task>, String> {
        self.inner.parse_cells(cells)
    }

    fn key_of(r: &Self::Result) -> String {
        M::key_of(r)
    }

    fn exec(&self, task: &Self::Task) -> (Self::Result, f64) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.inner.exec(task)
    }

    fn result_json(r: &Self::Result) -> Value {
        M::result_json(r)
    }
}

/// Truncates `path` on `fs` to `keep_frac` of its bytes (the same
/// torn-write model as the single-layer service harness, lifted onto
/// the injectable filesystem). Returns the number of complete lines
/// destroyed; when the rewrite itself fails under an active disk
/// fault the whole file is assumed destroyed (over-licensing a
/// re-execution weakens the bound, under-licensing would falsify it).
fn tear_file_on(fs: &dyn Fs, path: &Path, keep_frac: f64) -> usize {
    let Ok(bytes) = fs.read(path) else { return 0 };
    let lines_before = bytes.iter().filter(|&&b| b == b'\n').count();
    let keep = ((bytes.len() as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
    let kept = bytes[..keep.min(bytes.len())].to_vec();
    let lines_after = kept.iter().filter(|&&b| b == b'\n').count();
    match fs.create(path) {
        Ok(mut f) => {
            if f.write_all(&kept).and_then(|()| f.sync()).is_ok() {
                lines_before - lines_after
            } else {
                lines_before
            }
        }
        Err(_) => 0,
    }
}

/// Rewrites `path` on `fs` with `bytes`, best-effort (at-rest damage
/// injection; a failure under an active disk fault just means the
/// damage did not land).
fn rewrite_on(fs: &dyn Fs, path: &Path, bytes: &[u8]) {
    if let Ok(mut f) = fs.create(path) {
        let _ = f.write_all(bytes);
        let _ = f.sync();
    }
}

struct Conductor<M: CampaignModel, F: Fn() -> M> {
    make_model: F,
    sim: Arc<SimFs>,
    chaos: Arc<SchedChaos>,
    executed: Arc<AtomicUsize>,
    protocol: String,
    submission: String,
    id: String,
    dir: PathBuf,
    journal: PathBuf,
    total: usize,
    threads: usize,
    max_width: usize,
    base_stale: Option<usize>,
    pending_stale: Option<usize>,
    thread_change: Option<(usize, usize)>,
    thread_changed: bool,
    flood_serial: usize,
    revivals: usize,
    extra_cells: usize,
    fuel: usize,
    ledger: CrossLedger,
    acked: HashSet<String>,
    gw: Option<Gateway<Counted<M>>>,
}

impl<M: CampaignModel, F: Fn() -> M> Conductor<M, F> {
    fn cfg(&self, kill: Option<(usize, KillPoint)>, stale: Option<usize>) -> GatewayConfig {
        let mut cfg = GatewayConfig::new("/gw", self.protocol.as_str());
        cfg.limits = HttpLimits {
            deadline: DEADLINE,
            ..HttpLimits::default()
        };
        cfg.policy = TenantPolicy {
            quantum: 2,
            max_pending_cells: self.total.max(4),
            aging_rounds: 4,
        };
        cfg.shards = SHARDS;
        cfg.threads = self.threads;
        cfg.kill = kill;
        cfg.stale_lease_at = stale;
        cfg
    }

    fn queue_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("queue-{:02}.jsonl", shard % SHARDS))
    }

    /// Applies the disk-fault posture after a failed filesystem
    /// operation, mirroring the single-layer disk supervisor: a crash
    /// is handled at the reopen loop head, an active persistent
    /// ENOSPC is lifted once, anything else is a transient retried
    /// past.
    fn absorb_disk_err(&mut self) {
        if self.sim.crashed() {
            // restart happens at the reopen loop head
        } else if self.sim.enospc_active() {
            self.sim.lift_enospc();
            self.ledger.disk.enospc_lifts += 1;
        } else {
            self.ledger.disk.io_retries += 1;
        }
    }

    /// Opens a fresh gateway incarnation (restarting the disk first if
    /// it is power-cut), replays the acked-key oracle against the
    /// recovered results, and re-submits the campaign.
    fn reopen(&mut self, kill: Option<(usize, KillPoint)>) {
        let stale = self.pending_stale.take().or(self.base_stale);
        for _ in 0..REOPEN_TRIES {
            if self.fuel == 0 {
                return;
            }
            self.fuel -= 1;
            if self.sim.crashed() {
                self.sim.restart();
                self.ledger.disk.restarts += 1;
            }
            let model = Counted {
                inner: (self.make_model)(),
                executed: self.executed.clone(),
            };
            match Gateway::open_on(self.sim.clone() as SharedFs, self.cfg(kill, stale), model) {
                Ok(mut gw) => {
                    gw.arm_sched_chaos(self.chaos.clone());
                    self.ledger.gateway.incarnations += 1;
                    if let Some(keys) = gw.result_keys(&self.id) {
                        let keys: HashSet<String> = keys.into_iter().collect();
                        for k in &self.acked {
                            if !keys.contains(k) {
                                self.ledger.disk.acked_then_lost += 1;
                            }
                        }
                        self.acked.extend(keys);
                    }
                    self.gw = Some(gw);
                    self.submit();
                    return;
                }
                Err(_) => self.absorb_disk_err(),
            }
        }
    }

    /// POSTs the campaign (idempotent: the gateway deduplicates on the
    /// canonical id). A non-2xx under an active disk fault applies the
    /// disk posture and retries; a crash mid-submit cycles the whole
    /// incarnation.
    fn submit(&mut self) {
        for _ in 0..8 {
            if self.gw.is_none() {
                return;
            }
            let conn = self.drive_conn(ScriptedConn::request(http_post(
                "/campaigns",
                &self.submission,
            )));
            match conn.response_status() {
                Some(200 | 201) => return,
                _ => {
                    if self.sim.crashed() {
                        self.cycle(None);
                        return;
                    }
                    self.absorb_disk_err();
                }
            }
        }
    }

    fn drive_conn(&mut self, conn: ScriptedConn) -> ScriptedConn {
        match self.gw.as_mut() {
            Some(gw) => drive(gw, conn, &mut self.ledger.gateway),
            None => conn,
        }
    }

    /// Reads one incarnation's counters into the per-layer books.
    /// Called exactly once per gateway instance, just before it is
    /// dropped (and once for each pool an incarnation retires through
    /// a mid-run thread-count swap).
    fn absorb(&mut self) {
        let Some(gw) = self.gw.as_ref() else { return };
        if let Some(out) = gw.outcome_of(&self.id) {
            let s = &mut self.ledger.service;
            s.incarnations += 1;
            s.executed += out.executed;
            s.lost_executions += out.lost_executions;
            s.journal_preseeded += out.journal_preseeded;
            s.cache_hits += out.cache_hits;
            s.cache_corruption_caught += out.cache_stats.corrupt;
            s.reclaimed_leases += out.reclaimed;
            s.dropped_lines += out.dropped_lines;
            s.duplicate_results += out.duplicates_dropped;
            s.stale_presented += out.stale_presented;
            s.stale_rejected += out.stale_rejected;
            s.kills += out.killed as usize;
            self.ledger.gateway.executed += out.executed;
            self.ledger.gateway.lost_executions += out.lost_executions;
            // A lease stranded by a contained panic is normally
            // reclaimed through in-batch expiry, but a composed
            // storage fault can abort the batch first; the reclaim
            // then lands at the next recovery boundary (queue open).
            // Both paths contain the panic.
            self.ledger.sched.panic_reclaimed += out.panic_reclaimed + out.reclaimed;
        }
        let st = gw.stats();
        let g = &mut self.ledger.gateway;
        g.conns_opened += st.conns_opened;
        g.conns_closed += st.conns_closed;
        g.requests += st.requests;
        g.rejected += st.rejected;
        g.shed += st.shed;
        // Every storage-fault stall strands up to a pool width of
        // in-flight executions whose commits never became durable;
        // the revived service re-runs them, so the per-layer books
        // must license the re-executions. Revives are incarnation
        // boundaries for the cross allowance, same as reopens.
        self.revivals += st.revives;
        let stranded = st.stalls * self.max_width.max(self.threads);
        self.ledger.service.lost_executions += stranded;
        self.ledger.gateway.lost_executions += stranded;
        let ps = gw.pool().stats();
        self.ledger.sched.pool_tasks += ps.tasks as usize;
        self.ledger.sched.steals += ps.steals as usize;
        self.ledger.sched.panics_caught += ps.panics_caught as usize;
    }

    /// Absorb → drop → reopen. When the teardown is abnormal (the
    /// disk is power-cut under the live gateway) the final in-memory
    /// counters may include executions whose commits never became
    /// durable; the books get one stranded batch licensed, matching
    /// the width term the global allowance charges per boundary.
    fn cycle(&mut self, kill: Option<(usize, KillPoint)>) {
        let abnormal = self.sim.crashed();
        self.absorb();
        if abnormal {
            self.ledger.service.lost_executions += self.threads;
            self.ledger.gateway.lost_executions += self.threads;
        }
        self.gw = None;
        self.reopen(kill);
    }

    /// One pump with stall-revival tracking, panic containment and
    /// acked-key snapshotting.
    fn pump_tracked(&mut self, budget: usize) -> PumpReport {
        let report = {
            let Some(gw) = self.gw.as_mut() else {
                return PumpReport::default();
            };
            // Stall and revive accounting rides the cumulative
            // gateway stats, absorbed once per incarnation.
            catch_unwind(AssertUnwindSafe(|| gw.pump(budget))).ok()
        };
        match report {
            Some(r) => {
                self.snapshot_acked();
                r
            }
            None => {
                // A pump panic is a genuine violation (the disk book
                // convicts on it); the incarnation is untrustworthy.
                self.ledger.disk.panics += 1;
                self.absorb();
                self.gw = None;
                self.reopen(None);
                PumpReport::default()
            }
        }
    }

    fn snapshot_acked(&mut self) {
        let Some(gw) = self.gw.as_ref() else { return };
        if let Some(keys) = gw.result_keys(&self.id) {
            self.acked.extend(keys);
        }
    }

    fn completed(&self) -> usize {
        self.gw
            .as_ref()
            .and_then(|g| g.outcome_of(&self.id))
            .map_or(0, |o| o.completed)
    }

    /// The standing supervision duties between fault injections: land
    /// the scheduled thread-count change, restart a power-cut disk,
    /// lift a persistent ENOSPC once the gateway has visibly quiesced
    /// on it.
    fn supervise(&mut self) {
        if let Some((after, to)) = self.thread_change {
            if !self.thread_changed && self.completed() >= after {
                self.thread_changed = true;
                self.threads = to.max(1);
                self.max_width = self.max_width.max(self.threads);
                if let Some(gw) = self.gw.as_mut() {
                    let ps = gw.pool().stats();
                    self.ledger.sched.pool_tasks += ps.tasks as usize;
                    self.ledger.sched.steals += ps.steals as usize;
                    self.ledger.sched.panics_caught += ps.panics_caught as usize;
                    gw.swap_pool(self.threads, Some(self.chaos.clone()));
                }
            }
        }
        if self.sim.crashed() {
            self.cycle(None);
        } else if self.sim.enospc_active()
            && self
                .gw
                .as_ref()
                .is_none_or(|g| g.stalled_count() > 0 || g.outcome_of(&self.id).is_none())
        {
            self.sim.lift_enospc();
            self.ledger.disk.enospc_lifts += 1;
        }
    }

    fn pump_once(&mut self, budget: usize) {
        self.supervise();
        let r = self.pump_tracked(budget);
        if r.killed {
            self.ledger.gateway.kills += 1;
            self.cycle(None);
        }
        self.supervise();
    }

    /// Arms a kill for the next incarnation, pumps until it fires (or
    /// the campaign drains under it), then reopens clean.
    fn kill_incarnation(&mut self, cells: usize, point: KillPoint) {
        self.cycle(Some((cells.max(1), point)));
        for _ in 0..64 {
            self.supervise();
            if self.gw.as_ref().is_none_or(|g| g.all_done()) {
                break;
            }
            let r = self.pump_tracked(8);
            if r.killed {
                self.ledger.gateway.kills += 1;
                break;
            }
        }
        self.cycle(None);
    }

    fn apply_service_fault(&mut self, fault: ServiceFault) {
        match fault {
            ServiceFault::WorkerKill { cells } => {
                self.kill_incarnation(cells, KillPoint::BeforeResult);
            }
            ServiceFault::OrchestratorKillMidCommit { cells } => {
                self.kill_incarnation(cells, KillPoint::MidCommit);
            }
            ServiceFault::OrchestratorKillAfterCommit { cells } => {
                self.kill_incarnation(cells, KillPoint::AfterCommit);
            }
            ServiceFault::StaleLease { at_lease } => {
                // Landed at the next incarnation boundary (the drain
                // forces one if no kill arrives first).
                self.pending_stale = Some(at_lease);
            }
            ServiceFault::TornQueueWrite { shard, keep_frac } => {
                // At-rest damage semantics: tear between incarnations,
                // never under a live in-memory service.
                self.absorb();
                self.gw = None;
                let path = self.queue_path(shard);
                tear_file_on(self.sim.as_ref(), &path, keep_frac);
                self.reopen(None);
            }
            ServiceFault::TornResultWrite { keep_frac } => {
                self.absorb();
                self.gw = None;
                let path = self.journal.clone();
                let destroyed = tear_file_on(self.sim.as_ref(), &path, keep_frac);
                self.ledger.service.destroyed_results += destroyed;
                // The tear legitimately destroys fsynced lines; the
                // acked-replay set is rebuilt from the next recovery.
                self.acked.clear();
                self.reopen(None);
            }
            ServiceFault::CacheBitFlip { entry, byte, bit } => {
                // Campaign services behind the gateway keep their
                // cache under the campaign dir, but the at-rest
                // damage oracle is the same for any checksummed
                // durable line — land the flip on a queue shard,
                // whose recovery must drop (never trust) the line.
                self.absorb();
                self.gw = None;
                let path = self.queue_path(entry);
                if let Ok(mut bytes) = self.sim.read(&path) {
                    if !bytes.is_empty() {
                        let at = byte % bytes.len();
                        bytes[at] ^= 1 << (bit % 8);
                        rewrite_on(self.sim.as_ref(), &path, &bytes);
                    }
                }
                self.reopen(None);
            }
        }
    }

    fn apply_transport_fault(&mut self, fault: &TransportFault, flood_cells: &dyn Fn(usize) -> String) {
        match *fault {
            TransportFault::MalformedRequest { variant } => {
                let bytes: Vec<u8> = match variant % 6 {
                    0 => b"\x00\x01\x02garbage\xff\xfe".to_vec(),
                    1 => b"GET /healthz\r\n\r\n".to_vec(),
                    2 => b"get /healthz HTTP/1.1\r\n\r\n".to_vec(),
                    3 => b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(),
                    4 => {
                        let long = "x".repeat(4096);
                        format!("GET /{long} HTTP/1.1\r\n\r\n").into_bytes()
                    }
                    _ => b"POST /campaigns HTTP/1.1\r\n\r\n".to_vec(),
                };
                self.drive_conn(ScriptedConn::request(bytes));
            }
            TransportFault::TruncatedBody { keep_frac } => {
                let full = http_post("/campaigns", &self.submission);
                let head_end = full
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map_or(full.len(), |p| p + 4);
                let body_len = full.len() - head_end;
                let keep = head_end + ((body_len as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
                self.drive_conn(ScriptedConn::request(full[..keep.min(full.len())].to_vec()));
            }
            TransportFault::SlowReader { chunk, delay } => {
                let conn = ScriptedConn::request(http_post("/campaigns", &self.submission))
                    .dribble(chunk.max(1), delay)
                    .with_deadline(DEADLINE);
                self.drive_conn(conn);
            }
            TransportFault::MidResponseDisconnect { after } => {
                let conn = ScriptedConn::request(http_get(&format!("/campaigns/{}", self.id)))
                    .disconnect_after(after);
                self.drive_conn(conn);
            }
            TransportFault::ConnectionFlood { conns } => {
                for _ in 0..conns {
                    let cells = flood_cells(self.flood_serial);
                    self.flood_serial += 1;
                    let body = format!("{{\"tenant\":\"flood\",\"cells\":{cells}}}");
                    let conn = self.drive_conn(ScriptedConn::request(http_post("/campaigns", &body)));
                    if conn.response_status() == Some(429)
                        && conn.response_header("Retry-After").is_none()
                    {
                        // Shedding without a Retry-After is a policy
                        // violation the ledger charges as a panic.
                        self.ledger.gateway.panics += 1;
                    }
                }
            }
            TransportFault::GatewayKill { cells, point } => {
                self.kill_incarnation(cells, kill_point(point));
            }
        }
    }

    /// Drives the drain protocol, settles any still-pending stale
    /// injection first, and pumps to completion under supervision.
    fn drain(&mut self, total_faults: usize) {
        if self.pending_stale.is_some() {
            self.cycle(None);
        }
        self.drive_conn(ScriptedConn::request(http_post("/drain", "{}")));
        self.drive_conn(ScriptedConn::request(http_get("/readyz")));
        let budget = 64 + 24 * total_faults;
        for _ in 0..budget {
            self.supervise();
            if self.gw.is_none() {
                self.reopen(None);
                if self.gw.is_none() {
                    break;
                }
            }
            if self.gw.as_ref().is_some_and(|g| g.all_done()) {
                break;
            }
            let r = self.pump_tracked(16);
            if r.killed {
                self.ledger.gateway.kills += 1;
                self.cycle(None);
            }
        }
        self.drive_conn(ScriptedConn::request(http_get(&format!(
            "/campaigns/{}",
            self.id
        ))));
        self.drive_conn(ScriptedConn::request(http_get(&format!(
            "/campaigns/{}/results",
            self.id
        ))));
    }
}

/// Runs one composed chaos schedule: a fault-free direct reference in
/// `/reference`, then the gateway campaign in `/gw` on a disk
/// carrying the plan's disk faults, a pool carrying its scheduler
/// faults, attacked by its service and transport faults — and checks
/// [`check_cross_ledger`] over the absorbed [`CrossLedger`].
///
/// `make_model` builds a fresh model per incarnation. `cells_json` is
/// the campaign's cells array; `flood_cells(i)` renders the i-th
/// distinct flood submission's cells. `md_check`, when given and when
/// the MD layer is unmasked, runs the plan's MD fault schedule
/// through the caller's MD harness and contributes its
/// [`ScheduleReport`] to the ledger (the conductor itself is
/// MD-agnostic; the `chaos` binary supplies the real workload).
pub fn run_composed_chaos<M, F>(
    make_model: F,
    cells_json: &str,
    protocol: &str,
    plan: &ComposedPlan,
    flood_cells: &dyn Fn(usize) -> String,
    md_check: Option<&mut dyn FnMut(&FaultPlan) -> ScheduleReport>,
) -> io::Result<ComposedChaosReport>
where
    M: CampaignModel,
    F: Fn() -> M,
{
    let eff_service = plan.effective_service();
    let eff_transport = plan.effective_transport();
    let eff_disk = plan.effective_disk();
    let eff_sched = plan.effective_sched();
    if eff_sched.panic_count() > 0 {
        quiet_injected_panics();
    }

    let io_err = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
    let cells_value: Value =
        serde_json::from_str(cells_json).map_err(|e| io_err(format!("cells: {e}")))?;
    let cells_canonical =
        serde_json::to_string(&cells_value).map_err(|e| io_err(format!("cells: {e}")))?;
    let model = make_model();
    let tasks = model.parse_cells(&cells_value).map_err(io_err)?;
    let total = tasks.len();
    let id = campaign_id("alice", protocol, &cells_canonical);
    let submission = format!("{{\"tenant\":\"alice\",\"cells\":{cells_canonical}}}");

    // Fault-free serial reference on a pristine disk: the byte-
    // identity target for the drained artifact.
    let ref_fs = Arc::new(SimFs::new());
    let ref_cfg = ServiceConfig::new("/reference", protocol);
    let ref_journal = ref_cfg.journal_path();
    let mut reference =
        JobService::<M::Result>::open_on(ref_fs.clone() as SharedFs, ref_cfg, |r| M::key_of(r))?;
    reference.run(&tasks, |t| model.exec(t))?;
    drop(reference);
    let reference_digest = artifact_digest_on(ref_fs.as_ref(), &ref_journal);

    let mut ledger = CrossLedger::default();
    for (slot, layer) in LAYERS.iter().enumerate() {
        ledger.layer_events[slot] = if plan.mask.get(*layer) {
            plan.events_in(*layer)
        } else {
            0
        };
    }
    // The MD layer runs first and independently: its fault stream
    // attacks the simulated cluster, not the campaign's disk.
    if plan.mask.get(Layer::Md) {
        if let Some(check) = md_check {
            ledger.md = Some(check(&plan.effective_md()));
        }
    }

    let threads = eff_sched.threads.max(1);
    let chaos = SchedChaos::new(eff_sched.clone());
    let probe_cfg = GatewayConfig::new("/gw", protocol);
    let mut conductor = Conductor {
        make_model,
        sim: Arc::new(SimFs::with_plan(&eff_disk)),
        chaos,
        executed: Arc::new(AtomicUsize::new(0)),
        protocol: protocol.to_string(),
        submission,
        id: id.clone(),
        dir: probe_cfg.campaign_dir(&id),
        journal: probe_cfg.campaign_journal(&id),
        total,
        threads,
        max_width: threads.max(
            eff_sched
                .thread_change()
                .map_or(0, |(_, to)| to),
        ),
        base_stale: eff_sched.stale_lease_at(),
        pending_stale: None,
        thread_change: eff_sched.thread_change(),
        thread_changed: false,
        flood_serial: 0,
        revivals: 0,
        extra_cells: 0,
        fuel: REOPEN_FUEL,
        ledger,
        acked: HashSet::new(),
        gw: None,
    };

    conductor.reopen(None);

    // Interleave the service and transport streams round-robin, with
    // supervised pumping between injections so every fault lands on a
    // live, mid-flight campaign.
    let rounds = eff_service.faults.len().max(eff_transport.faults.len());
    for i in 0..rounds {
        if let Some(fault) = eff_service.faults.get(i) {
            conductor.apply_service_fault(*fault);
        }
        conductor.pump_once(3);
        if let Some(fault) = eff_transport.faults.get(i) {
            conductor.apply_transport_fault(fault, flood_cells);
        }
        conductor.pump_once(3);
    }

    let total_faults = eff_service.faults.len()
        + eff_transport.faults.len()
        + eff_disk.faults.len()
        + eff_sched.faults.len();
    conductor.drain(total_faults);

    // Final accounting: completion counts and the pool-reusability
    // probe from the surviving gateway, flood campaigns' cells into
    // the execution license, then the last absorb.
    if let Some(gw) = conductor.gw.as_ref() {
        if let Some(out) = gw.outcome_of(&id) {
            conductor.ledger.service.completed = out.completed;
            conductor.ledger.service.abandoned = out.abandoned;
            conductor.ledger.gateway.completed = out.completed;
            conductor.ledger.gateway.abandoned = out.abandoned;
            conductor.ledger.sched.completed = out.completed;
            conductor.ledger.sched.abandoned = out.abandoned;
        }
        let probe: Vec<u64> = vec![1, 2, 3];
        conductor.ledger.sched.pool_reusable = gw
            .pool()
            .try_par_map_indexed(&probe, |_, x| *x * 2)
            .is_ok();
        conductor.extra_cells = gw
            .campaign_ids()
            .iter()
            .filter(|c| **c != id)
            .filter_map(|c| gw.outcome_of(c))
            .map(|o| o.total)
            .sum();
    }
    conductor.absorb();
    conductor.gw = None;

    // Post-mortem verification straight from the disk, like the
    // single-layer disk harness: reopen the campaign's service
    // directly (construction is recovery), replay the acked-key
    // oracle one last time, and compare every recovered result
    // byte-for-byte against a fresh execution.
    let mut scfg = ServiceConfig::new(conductor.dir.clone(), protocol);
    scfg.shards = SHARDS;
    let mut final_results = None;
    for _ in 0..REOPEN_TRIES {
        if conductor.sim.crashed() {
            conductor.sim.restart();
            conductor.ledger.disk.restarts += 1;
        }
        match JobService::<M::Result>::open_on(
            conductor.sim.clone() as SharedFs,
            scfg.clone(),
            |r| M::key_of(r),
        ) {
            Ok(s) => {
                final_results = Some(s.results().clone());
                break;
            }
            Err(_) => conductor.absorb_disk_err(),
        }
    }
    if let Some(results) = &final_results {
        for k in &conductor.acked {
            if !results.contains_key(k) {
                conductor.ledger.disk.acked_then_lost += 1;
            }
        }
        let verifier = (conductor.make_model)();
        for task in &tasks {
            let (expected, _) = verifier.exec(task);
            let key = M::key_of(&expected);
            if let Some(got) = results.get(&key) {
                conductor.ledger.disk.completed += 1;
                let same = match (serde_json::to_string(got), serde_json::to_string(&expected)) {
                    (Ok(a), Ok(b)) => a == b,
                    _ => false,
                };
                if !same {
                    conductor.ledger.disk.corrupt_accepted += 1;
                }
            }
        }
    }

    let mut ledger = conductor.ledger;
    let artifact_digest = artifact_digest_on(conductor.sim.as_ref(), &conductor.journal);
    ledger.artifact_digest = artifact_digest;
    ledger.reference_digest = reference_digest;
    for (a, r) in [
        (&mut ledger.service.artifact_digest, &mut ledger.service.reference_digest),
        (&mut ledger.gateway.artifact_digest, &mut ledger.gateway.reference_digest),
        (&mut ledger.disk.artifact_digest, &mut ledger.disk.reference_digest),
        (&mut ledger.sched.artifact_digest, &mut ledger.sched.reference_digest),
    ] {
        *a = artifact_digest;
        *r = reference_digest;
    }

    // Totals and the remaining book columns.
    ledger.service.total_cells = total;
    ledger.gateway.total_cells = total;
    ledger.disk.total_cells = total;
    ledger.sched.total_cells = total;
    ledger.disk.incarnations = ledger.gateway.incarnations;
    ledger.disk.abandoned = ledger.service.abandoned;
    ledger.sched.threads = conductor.threads;
    ledger.sched.executed = ledger.service.executed;
    ledger.sched.panics_injected = conductor.chaos.injected_panics();
    ledger.sched.pauses_taken = conductor.chaos.pauses_taken();
    ledger.sched.stale_presented = ledger.service.stale_presented;
    ledger.sched.stale_rejected = ledger.service.stale_rejected;
    ledger.sched.journal_lines = conductor
        .sim
        .read(&conductor.journal)
        .map(|b| b.iter().filter(|&&x| x == b'\n').count())
        .unwrap_or(0);
    ledger.sched.stalled = false;
    ledger.disk.disk = conductor.sim.counters();

    // A torn results journal behind the gateway creates re-executions
    // the transport-layer book cannot see coming; license them there
    // the same way the service book does.
    ledger.gateway.lost_executions += ledger.service.destroyed_results;
    // The disk book's execution columns mirror the absorbed service
    // counters (ground truth lives in `executed_true` below).
    ledger.disk.executed = ledger.service.executed;
    ledger.disk.lost_executions = ledger.service.lost_executions
        + ledger.service.destroyed_results
        + ledger.service.dropped_lines;

    // The composed execution license: see the module docs.
    let boundaries = ledger.gateway.incarnations
        + ledger.disk.restarts
        + ledger.disk.io_retries
        + ledger.disk.enospc_lifts
        + conductor.revivals;
    ledger.exec_allowance = total
        + conductor.extra_cells
        + conductor.max_width * boundaries
        + ledger.service.destroyed_results
        + ledger.service.dropped_lines
        + ledger.service.reclaimed_leases
        + ledger.service.stale_presented
        + ledger.sched.panics_injected;
    ledger.executed_true = conductor.executed.load(Ordering::Relaxed);

    let violations = check_cross_ledger(&ledger);
    Ok(ComposedChaosReport {
        ledger,
        violations,
        campaign: id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_cells, demo_flood_cells, DemoModel};
    use cpc_cluster::{
        ComposedFaultSpace, DiskFaultSpace, FaultSpace, LayerMask, SchedFaultSpace,
        ServiceFaultSpace, TransportFaultSpace,
    };

    const PROTOCOL: &str = "steps=8;model=demo";
    const CELLS: usize = 6;

    fn run(plan: &ComposedPlan) -> ComposedChaosReport {
        run_composed_chaos(
            DemoModel::default,
            &demo_cells(CELLS as u64),
            PROTOCOL,
            plan,
            &demo_flood_cells,
            None,
        )
        .expect("composed chaos run")
    }

    fn space() -> ComposedFaultSpace {
        ComposedFaultSpace::new(
            FaultSpace::new(4, 4, 8, 60.0, 64),
            ServiceFaultSpace::new(CELLS, SHARDS),
            TransportFaultSpace::new(CELLS),
            DiskFaultSpace::new(400),
            SchedFaultSpace::new(CELLS),
        )
    }

    #[test]
    fn quiet_plan_is_byte_identical_and_clean() {
        let report = run(&ComposedPlan::quiet(2));
        assert!(report.passed(), "violations: {:?}", report.violations);
        let l = &report.ledger;
        assert_eq!(l.gateway.incarnations, 1);
        assert_eq!(l.service.completed, CELLS);
        assert_eq!(l.executed_true, CELLS);
        assert!(l.artifact_digest.is_some());
        assert_eq!(l.artifact_digest, l.reference_digest);
    }

    #[test]
    fn masked_schedule_matches_fault_free_reference() {
        // Any sampled schedule with every layer masked degenerates to
        // the quiet run: byte-identical artifact, no violations.
        let mut plan = space().sample(11, 3);
        plan.mask = LayerMask::none();
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.executed_true, CELLS);
        assert_eq!(report.ledger.artifact_digest, report.ledger.reference_digest);
        assert_eq!(report.ledger.layer_events, [0, 0, 0, 0, 0]);
    }

    #[test]
    fn reproducer_replay_is_deterministic_from_seed_and_mask() {
        // A corpus reproducer pins nothing beyond its plan — which is
        // fully determined by (seed, index, layer mask). Replay must
        // be bitwise repeatable: the same plan, fresh or revived from
        // its JSON corpus form, produces byte-identical verdicts,
        // per-layer event counts and artifact digests.
        let space = space();
        for (seed, index) in [(11u64, 3u64), (29, 1)] {
            let mut plan = space.sample(seed, index);
            plan.mask = plan.mask.without(cpc_cluster::Layer::Transport);
            let json = serde_json::to_string(&plan).expect("plan serializes");
            let revived: ComposedPlan = serde_json::from_str(&json).expect("plan revives");
            let fresh = run(&plan);
            let replay = run(&revived);
            assert_eq!(
                format!("{:?}", fresh.violations),
                format!("{:?}", replay.violations),
                "seed {seed} index {index}: verdict drifted across replays"
            );
            assert_eq!(fresh.ledger.layer_events, replay.ledger.layer_events);
            assert_eq!(fresh.ledger.artifact_digest, replay.ledger.artifact_digest);
            assert_eq!(fresh.ledger.reference_digest, replay.ledger.reference_digest);
        }
    }

    #[test]
    fn composed_schedules_survive_every_layer_at_once() {
        let space = space();
        for index in 0..4 {
            let plan = space.sample(29, index);
            let report = run(&plan);
            assert!(
                report.passed(),
                "schedule {index} convicted: {:?}\nledger: {:#?}",
                report.violations,
                report.ledger
            );
            assert_eq!(
                report.ledger.artifact_digest, report.ledger.reference_digest,
                "schedule {index} diverged from the reference artifact"
            );
        }
    }

    #[test]
    fn double_torn_result_write_heals_on_drain() {
        // Two back-to-back journal tears that each destroy every
        // committed line: the drain must heal all of them back.
        let mut plan = ComposedPlan::quiet(2);
        plan.service = cpc_cluster::ServiceFaultPlan {
            faults: vec![
                cpc_cluster::ServiceFault::TornResultWrite { keep_frac: 0.12 },
                cpc_cluster::ServiceFault::TornResultWrite { keep_frac: 0.11 },
            ],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(report.ledger.artifact_digest, report.ledger.reference_digest);
    }

    #[test]
    fn double_tear_under_a_service_only_mask_heals() {
        // Regression (found by `chaos --composed`): a campaign that
        // completed, then lost its whole results journal to a tear,
        // must not latch `done` from the still-drained queue at the
        // recovery that follows — the heal path needs pump grants.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::none().set(Layer::Service, true);
        plan.service = cpc_cluster::ServiceFaultPlan {
            faults: vec![
                cpc_cluster::ServiceFault::TornResultWrite { keep_frac: 0.12248394148650728 },
                cpc_cluster::ServiceFault::TornResultWrite { keep_frac: 0.11895633382522722 },
            ],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
    }

    #[test]
    fn high_bit_flip_in_a_queue_shard_recovers() {
        // Regression (found by `chaos --composed`): a bit-7 flip
        // leaves the shard invalid UTF-8; recovery must read it as
        // that line's checksum damage, not an unreadable journal —
        // the wedge here was every reopen failing until the fuel ran
        // out, stranding the campaign at 0 of 6 cells.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::none().set(Layer::Service, true);
        plan.service = cpc_cluster::ServiceFaultPlan {
            faults: vec![cpc_cluster::ServiceFault::CacheBitFlip {
                entry: 5,
                byte: 1439,
                bit: 7,
            }],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(report.ledger.artifact_digest, report.ledger.reference_digest);
    }

    #[test]
    fn task_panic_composed_with_persistent_enospc_is_contained() {
        // Regression (found by `chaos --composed`): the storage fault
        // aborts the batch before the in-batch lease-expiry reclaim
        // can land, so the panicked task's lease is reclaimed at the
        // next recovery boundary instead — which must satisfy the
        // containment oracle, not convict it.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::none()
            .set(Layer::Disk, true)
            .set(Layer::Sched, true);
        plan.disk.faults.push(cpc_vfs::DiskFault::EnospcPersistent { at: 136 });
        plan.sched.faults.push(cpc_pool::SchedFault::TaskPanic { at_start: 3 });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(report.ledger.artifact_digest, report.ledger.reference_digest);
    }

    #[test]
    fn stall_under_kill_and_transient_enospc_licenses_stranded_executions() {
        // Regression (found by `chaos --composed`): a transient
        // ENOSPC mid-batch strands executions whose commits were
        // discarded; the revived service legitimately re-runs them,
        // and the per-layer duplicate-execution books must carry the
        // stall's license.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::none()
            .set(Layer::Service, true)
            .set(Layer::Transport, true)
            .set(Layer::Disk, true);
        plan.service.faults.push(ServiceFault::TornQueueWrite {
            shard: 2,
            keep_frac: 0.8225311486056455,
        });
        plan.transport.faults.push(TransportFault::GatewayKill { cells: 1, point: 1 });
        plan.disk.faults.push(cpc_vfs::DiskFault::EnospcTransient { at: 132, ops: 5 });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(report.ledger.artifact_digest, report.ledger.reference_digest);
    }

    #[test]
    fn kill_crash_interaction_exercises_both_layers() {
        // A hand-built cross-layer schedule: an orchestrator kill
        // (service layer) composed with a reordering power cut (disk
        // layer) and a gateway kill (transport layer). The acked-set
        // replay must survive the restart and the artifact must stay
        // byte-identical.
        let mut plan = ComposedPlan::quiet(2);
        plan.service.faults.push(ServiceFault::WorkerKill { cells: 2 });
        plan.transport.faults.push(TransportFault::GatewayKill { cells: 1, point: 1 });
        plan.disk.faults.push(cpc_vfs::DiskFault::PowerLoss {
            at: 60,
            reorder: true,
            keep_seed: 7,
        });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let l = &report.ledger;
        assert!(l.gateway.incarnations >= 3, "kills must cycle incarnations");
        assert!(l.service.kills + l.gateway.kills >= 2);
        assert_eq!(l.artifact_digest, l.reference_digest);
    }
}
