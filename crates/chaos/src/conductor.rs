//! The chaos conductor: one serve-backed campaign driven with any
//! subset of the five fault layers armed — all of them at once, or one
//! alone.
//!
//! Real outages do not take turns. [`run_composed_chaos`] runs one
//! campaign on a simulated disk carrying a
//! [`DiskFaultPlan`](cpc_vfs::DiskFaultPlan), through a gateway whose
//! pool carries a `SchedFaultPlan`, attacked over the wire by a
//! `TransportFaultPlan` while an orchestrator-level
//! `ServiceFaultPlan` kills and tears it — and absorbs every layer's
//! accounting into one [`CrossLedger`] checked by
//! [`check_cross_ledger`]: the union of the single-layer oracles plus
//! the interaction oracles (acked-then-lost across disk fault ×
//! kill, the global execution bound, end-to-end byte identity) that
//! only a composed schedule can exercise. The plan's
//! [`LayerMask`](crate::LayerMask) decides which of those schedules
//! run, so each layer's own harness is this function under
//! [`LayerMask::only`](crate::LayerMask::only): there is no other
//! driver.
//!
//! ## Accounting discipline
//!
//! * **One execution book.** Ground truth comes from a counting model
//!   wrapper: every `exec` across every incarnation, revival and flood
//!   campaign increments one shared counter
//!   ([`CrossLedger::executed_true`]). The conductor walks every pump
//!   phase by phase (`begin` → `run` → `finish`) and charges a loss
//!   where it happens: a ticket licenses exactly the executions it ran
//!   minus the results it committed (zero unless a kill fired or a
//!   storage error stalled the commit walk), plus one for the commit
//!   that was in flight when a storage error hit (its durability is
//!   unknown). Each durable line a torn results journal destroyed
//!   licenses one more. Nothing else re-executes a cell, so nothing
//!   else is licensed — [`CrossLedger::post_executions`] posts that one
//!   book to every layer's duplicate-execution oracle.
//! * **Acked-then-lost** replays the committed result *keys* (the
//!   service records a key only after its journal append fsynced)
//!   across every reopen; a torn results journal legitimately
//!   destroys fsynced lines, so the replay set is rebuilt from the
//!   next recovery after that licensed damage.
//! * **Per-layer books** are filled from absorbed outcome snapshots
//!   (an incarnation's counters are read once, just before its
//!   gateway is dropped), so the single-layer oracles keep holding
//!   verbatim under composition.

use std::collections::HashSet;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cpc_charmm::ScheduleReport;
use cpc_cluster::FaultPlan;
use cpc_gateway::{
    campaign_id, drive, http_get, http_post, Begun, CampaignModel, Gateway, GatewayConfig,
    HttpLimits, PumpReport, ScriptedConn, TenantPolicy,
};
use cpc_pool::{quiet_injected_panics, SchedChaos};
use cpc_vfs::{Fs, SharedFs, SimFs};
use cpc_workload::service::{artifact_digest_on, JobService, KillPoint, ServiceConfig};
use cpc_workload::{ResultCache, ServiceOutcome};
use serde_json::Value;

use crate::ledger::{check_cross_ledger, CrossLedger, CrossViolation, GatewayLedger};
use crate::plan::{ComposedPlan, Layer, ServiceFault, TransportFault, LAYERS};

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
}

impl ComposedChaosReport {
    /// Whether every composed oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Model wrapper counting ground-truth executions. Injected pool
/// panics fire *before* the task closure runs, so a panicked attempt
/// never increments the counter — only its post-reclaim execution
/// does, and that is the cell's first: a contained panic licenses
/// nothing.
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

/// Truncates `path` on `fs` to `keep_frac` of its bytes (a torn
/// write at rest). Returns the number of complete lines
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

/// One scripted connection through the gateway, its misbehaviour
/// charged to the transport book: a handler panic, every read issued
/// past the deadline, and — a policy violation charged as a panic —
/// a 429 shed without `Retry-After`.
fn land<M: CampaignModel>(
    gw: &mut Gateway<M>,
    conn: ScriptedConn,
    ledger: &mut GatewayLedger,
) -> ScriptedConn {
    let (conn, panicked) = drive(gw, conn);
    let unadvised =
        conn.response_status() == Some(429) && conn.response_header("Retry-After").is_none();
    ledger.panics += panicked as usize + unadvised as usize;
    ledger.deadline_overruns += conn.overruns();
    conn
}

/// The commit point a transport plan's gateway kill names.
fn kill_point(point: u8) -> KillPoint {
    match point % 3 {
        0 => KillPoint::BeforeResult,
        1 => KillPoint::MidCommit,
        _ => KillPoint::AfterCommit,
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
    base_stale: Option<usize>,
    pending_stale: Option<usize>,
    /// The scheduled mid-campaign thread-count change, until it lands.
    thread_change: Option<(usize, usize)>,
    flood_serial: usize,
    /// Re-executions licensed so far: the allowance side of the one
    /// execution book (see the module docs).
    licensed: usize,
    /// The canonical campaign's stalled service instance already folded
    /// into the books (see [`Self::fold_if_stalled`]).
    folded: Option<ServiceOutcome>,
    /// Requests waiting to land between the `begin` and `finish` of the
    /// next ticket.
    window: Vec<ScriptedConn>,
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

    /// Applies the supervisor's disk-fault posture after a failed
    /// filesystem operation: a crash
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
            Some(gw) => land(gw, conn, &mut self.ledger.gateway),
            None => conn,
        }
    }

    /// Every campaign's committed fresh executions in the live
    /// gateway: the "results committed" side of a ticket's balance.
    fn committed(gw: &Gateway<Counted<M>>) -> usize {
        gw.campaign_ids()
            .iter()
            .filter_map(|id| gw.outcome_of(id))
            .map(|o| o.executed - o.lost_executions)
            .sum()
    }

    /// Folds one instance of the canonical campaign's service into the
    /// per-layer books.
    fn fold_service(ledger: &mut CrossLedger, out: &ServiceOutcome) {
        let s = &mut ledger.service;
        s.incarnations += 1;
        s.journal_preseeded += out.journal_preseeded;
        s.cache_hits += out.cache_hits;
        s.cache_corruption_caught += out.cache_stats.corrupt;
        s.reclaimed_leases += out.reclaimed;
        s.dropped_lines += out.dropped_lines;
        s.duplicate_results += out.duplicates_dropped;
        s.stale_presented += out.stale_presented;
        s.stale_rejected += out.stale_rejected;
        s.kills += out.killed as usize;
        // A lease stranded by a contained panic is normally
        // reclaimed through in-batch expiry, but a composed
        // storage fault can abort the batch first; the reclaim
        // then lands at the next recovery boundary (queue open).
        // Both paths contain the panic.
        ledger.sched.panic_reclaimed += out.panic_reclaimed + out.reclaimed;
    }

    /// Folds the live gateway's instance of the canonical campaign's
    /// service into the books, unless it is the one `folded` remembers
    /// (a dead instance's outcome never changes, so equality is
    /// identity).
    fn fold_once(
        ledger: &mut CrossLedger,
        folded: &mut Option<ServiceOutcome>,
        gw: &Gateway<Counted<M>>,
        id: &str,
    ) {
        let out = gw.outcome_of(id);
        if out != *folded {
            if let Some(out) = &out {
                Self::fold_service(ledger, out);
            }
            *folded = out;
        }
    }

    /// A stalled service is dead: the grant that revives its campaign
    /// replaces it, counters and all, so it is folded into the books
    /// the first time it is seen stalled, and remembered until the
    /// campaign is seen running again.
    fn fold_if_stalled(
        ledger: &mut CrossLedger,
        folded: &mut Option<ServiceOutcome>,
        gw: &Gateway<Counted<M>>,
        id: &str,
    ) {
        if gw.is_stalled(id) {
            Self::fold_once(ledger, folded, gw, id);
        } else {
            *folded = None;
        }
    }

    /// Reads one incarnation's counters into the per-layer books.
    /// Called exactly once per gateway instance, just before it is
    /// dropped (and once for each pool an incarnation retires through
    /// a mid-run thread-count swap).
    fn absorb(&mut self) {
        let Some(gw) = self.gw.as_ref() else { return };
        Self::fold_once(&mut self.ledger, &mut self.folded, gw, &self.id);
        self.folded = None;
        let st = gw.stats();
        let g = &mut self.ledger.gateway;
        g.conns_opened += st.conns_opened;
        g.conns_closed += st.conns_closed;
        g.requests += st.requests;
        g.rejected += st.rejected;
        g.shed += st.shed;
        Self::absorb_pool(&mut self.ledger, gw);
    }

    /// Reads a retiring pool's counters into the scheduler book.
    fn absorb_pool(ledger: &mut CrossLedger, gw: &Gateway<Counted<M>>) {
        let ps = gw.pool().stats();
        ledger.sched.pool_tasks += ps.tasks as usize;
        ledger.sched.panics_caught += ps.panics_caught as usize;
    }

    /// Absorb → drop → reopen.
    fn cycle(&mut self, kill: Option<(usize, KillPoint)>) {
        self.absorb();
        self.gw = None;
        self.reopen(kill);
    }

    /// One pump of up to `budget` cells with panic containment and
    /// acked-key snapshotting, walked phase by phase — the loop
    /// [`Gateway::pump`] runs, opened up for two reasons. The requests
    /// in `self.window` land while the first ticket is out (after its
    /// `begin`, before its `run` and `finish`), so every layer's
    /// faults meet a request in that window, not only the concurrent
    /// transport test's. And the execution book is settled per ticket:
    /// what the ticket ran minus what it committed is licensed, plus
    /// the in-flight commit when a storage error stalled the walk.
    fn pump_tracked(&mut self, budget: usize) -> PumpReport {
        let Some(mut gw) = self.gw.take() else {
            return PumpReport::default();
        };
        let mut report = PumpReport::default();
        let walked = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..budget {
                if report.granted >= budget || report.killed {
                    break;
                }
                let begun = gw.begin(budget - report.granted);
                Self::fold_if_stalled(&mut self.ledger, &mut self.folded, &gw, &self.id);
                // Whatever `begin` found, the waiting requests land
                // now: with a ticket out, that is the window.
                for conn in self.window.drain(..) {
                    land(&mut gw, conn, &mut self.ledger.gateway);
                }
                let mut ticket = match begun {
                    Begun::Idle => break,
                    Begun::Dead => {
                        report.killed = true;
                        break;
                    }
                    Begun::Skipped => continue,
                    Begun::Ticket(ticket) => ticket,
                };
                let ran = self.executed.load(Ordering::Relaxed);
                let committed = Self::committed(&gw);
                let stalls = gw.stats().stalls;
                loop {
                    ticket.run();
                    match gw.finish(ticket, &mut report) {
                        Some(again) => ticket = again,
                        None => break,
                    }
                }
                let ran = self.executed.load(Ordering::Relaxed) - ran;
                let committed = Self::committed(&gw) - committed;
                let stranded = ran
                    .checked_sub(committed)
                    .expect("a ticket commits only what it ran");
                self.licensed += stranded + (gw.stats().stalls - stalls);
                Self::fold_if_stalled(&mut self.ledger, &mut self.folded, &gw, &self.id);
            }
        }));
        self.gw = Some(gw);
        self.ledger.gateway.kills += report.killed as usize;
        match walked {
            Ok(()) => self.snapshot_acked(),
            Err(_) => {
                // A pump panic is a genuine violation (the disk book
                // convicts on it); the incarnation is untrustworthy.
                self.ledger.disk.panics += 1;
                self.cycle(None);
            }
        }
        report
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
            if self.completed() >= after {
                self.thread_change = None;
                self.threads = to.max(1);
                if let Some(gw) = self.gw.as_mut() {
                    Self::absorb_pool(&mut self.ledger, gw);
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
        if self.pump_tracked(budget).killed {
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
            if self.pump_tracked(8).killed {
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
                // A fresh incarnation armed with it now: parked until
                // some later boundary, most of the campaign's leases
                // have been granted and the stale one is never
                // presented.
                self.pending_stale = Some(at_lease);
                self.cycle(None);
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
                // At-rest rot between incarnations: one bit of one
                // result-cache entry, whose checksum must quarantine it
                // on the next read, and one bit of a queue shard,
                // whose recovery must drop (never trust) the line.
                self.absorb();
                self.gw = None;
                let cached = ResultCache::open_on(
                    self.sim.clone() as SharedFs,
                    ServiceConfig::new(self.dir.clone(), self.protocol.as_str()).cache_dir(),
                )
                .map(|cache| cache.entry_paths())
                .unwrap_or_default();
                let shard = self.queue_path(entry);
                for path in cached
                    .get(entry % cached.len().max(1))
                    .into_iter()
                    .chain([&shard])
                {
                    if let Ok(mut bytes) = self.sim.read(path) {
                        if !bytes.is_empty() {
                            let at = byte % bytes.len();
                            bytes[at] ^= 1 << (bit % 8);
                            rewrite_on(self.sim.as_ref(), path, &bytes);
                        }
                    }
                }
                self.reopen(None);
            }
        }
    }

    /// A hostile client's connections wait in `self.window` for the
    /// next ticket (see [`Self::pump_tracked`]); a gateway kill is an
    /// incarnation of its own.
    fn apply_transport_fault(
        &mut self,
        fault: &TransportFault,
        flood_cells: &dyn Fn(usize) -> String,
    ) {
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
                self.window.push(ScriptedConn::request(bytes));
            }
            TransportFault::TruncatedBody { keep_frac } => {
                let full = http_post("/campaigns", &self.submission);
                let head_end = full
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map_or(full.len(), |p| p + 4);
                let body_len = full.len() - head_end;
                let keep = head_end + ((body_len as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
                self.window
                    .push(ScriptedConn::request(full[..keep.min(full.len())].to_vec()));
            }
            TransportFault::SlowReader { chunk, delay } => {
                let conn = ScriptedConn::request(http_post("/campaigns", &self.submission))
                    .dribble(chunk.max(1), delay)
                    .with_deadline(DEADLINE);
                self.window.push(conn);
            }
            TransportFault::MidResponseDisconnect { after } => {
                let conn = ScriptedConn::request(http_get(&format!("/campaigns/{}", self.id)))
                    .disconnect_after(after);
                self.window.push(conn);
            }
            TransportFault::ConnectionFlood { conns } => {
                for _ in 0..conns {
                    let cells = flood_cells(self.flood_serial);
                    self.flood_serial += 1;
                    let body = format!("{{\"tenant\":\"flood\",\"cells\":{cells}}}");
                    self.window
                        .push(ScriptedConn::request(http_post("/campaigns", &body)));
                }
            }
            TransportFault::GatewayKill { cells, point } => {
                self.kill_incarnation(cells, kill_point(point));
            }
        }
    }

    /// Drives the drain protocol and pumps to completion under
    /// supervision.
    fn drain(&mut self, total_faults: usize) {
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
            if self.pump_tracked(16).killed {
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
    let eff = plan.effective();
    if eff.sched.panic_count() > 0 {
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

    let mut ledger = CrossLedger {
        layer_events: LAYERS.map(|layer| eff.events_in(layer)),
        ..CrossLedger::default()
    };
    // The MD layer runs first and independently: its fault stream
    // attacks the simulated cluster, not the campaign's disk.
    if plan.mask.get(Layer::Md) {
        if let Some(check) = md_check {
            ledger.md = Some(check(&eff.md));
        }
    }

    let threads = eff.sched.threads.max(1);
    let chaos = SchedChaos::new(eff.sched.clone());
    let probe_cfg = GatewayConfig::new("/gw", protocol);
    let mut conductor = Conductor {
        make_model,
        sim: Arc::new(SimFs::with_plan(&eff.disk)),
        chaos,
        executed: Arc::new(AtomicUsize::new(0)),
        protocol: protocol.to_string(),
        submission,
        id: id.clone(),
        dir: probe_cfg.campaign_dir(&id),
        journal: probe_cfg.campaign_journal(&id),
        total,
        threads,
        base_stale: eff.sched.stale_lease_at(),
        pending_stale: None,
        thread_change: eff.sched.thread_change(),
        flood_serial: 0,
        licensed: 0,
        folded: None,
        window: Vec::new(),
        fuel: REOPEN_FUEL,
        ledger,
        acked: HashSet::new(),
        gw: None,
    };

    conductor.reopen(None);

    // Interleave the service and transport streams round-robin, with
    // supervised pumping between injections so every fault lands on a
    // live, mid-flight campaign.
    let rounds = eff.service.faults.len().max(eff.transport.faults.len());
    for i in 0..rounds {
        if let Some(fault) = eff.service.faults.get(i) {
            conductor.apply_service_fault(*fault);
        }
        conductor.pump_once(3);
        if let Some(fault) = eff.transport.faults.get(i) {
            conductor.apply_transport_fault(fault, flood_cells);
        }
        conductor.pump_once(3);
    }

    conductor.drain(eff.events() - eff.events_in(Layer::Md));

    // Final accounting: completion counts and the pool-reusability
    // probe from the surviving gateway, the flood campaigns' cells (one
    // execution each is theirs by right), then the last absorb.
    let mut extra_cells = 0;
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
        conductor.ledger.sched.pool_reusable =
            gw.pool().try_par_map_indexed(&probe, |_, x| *x * 2).is_ok();
        extra_cells = gw
            .campaign_ids()
            .iter()
            .filter(|c| **c != id)
            .filter_map(|c| gw.outcome_of(c))
            .map(|o| o.total)
            .sum();
    }
    conductor.absorb();
    conductor.gw = None;

    // Post-mortem verification straight from the disk, never from the
    // in-memory instance that drained: reopen the campaign's service
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
        (
            &mut ledger.service.artifact_digest,
            &mut ledger.service.reference_digest,
        ),
        (
            &mut ledger.gateway.artifact_digest,
            &mut ledger.gateway.reference_digest,
        ),
        (
            &mut ledger.disk.artifact_digest,
            &mut ledger.disk.reference_digest,
        ),
        (
            &mut ledger.sched.artifact_digest,
            &mut ledger.sched.reference_digest,
        ),
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
    ledger.post_executions(
        conductor.executed.load(Ordering::Relaxed),
        extra_cells,
        conductor.licensed,
    );

    let violations = check_cross_ledger(&ledger);
    Ok(ComposedChaosReport { ledger, violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        ComposedFaultSpace, DiskFaultSpace, LayerMask, SchedFaultSpace, ServiceFaultPlan,
        ServiceFaultSpace, TransportFaultPlan, TransportFaultSpace,
    };
    use cpc_cluster::FaultSpace;
    use cpc_gateway::{demo_cells, demo_flood_cells, DemoModel};
    use cpc_pool::SchedFault;
    use cpc_vfs::DiskFault;

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
        ComposedFaultSpace {
            md: FaultSpace::new(4, 4, 8, 60.0, 64),
            service: ServiceFaultSpace::new(CELLS, SHARDS),
            transport: TransportFaultSpace::new(CELLS),
            disk: DiskFaultSpace::new(400),
            sched: SchedFaultSpace::new(CELLS),
        }
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
        // Every layer's fault-free baseline: one incarnation and no
        // restart on the disk book, one journal line per cell and a
        // reusable pool on the scheduler's, every cell executed exactly
        // once on each.
        assert_eq!((l.disk.incarnations, l.disk.restarts), (1, 0));
        assert_eq!((l.disk.completed, l.disk.executed), (CELLS, CELLS));
        assert_eq!((l.sched.completed, l.sched.journal_lines), (CELLS, CELLS));
        assert!(l.sched.pool_reusable);
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
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
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
            plan.mask = plan.mask.without(Layer::Transport);
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
            assert_eq!(
                fresh.ledger.reference_digest,
                replay.ledger.reference_digest
            );
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
        plan.service = ServiceFaultPlan {
            faults: vec![
                ServiceFault::TornResultWrite { keep_frac: 0.12 },
                ServiceFault::TornResultWrite { keep_frac: 0.11 },
            ],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
    }

    #[test]
    fn double_tear_under_a_service_only_mask_heals() {
        // Regression (found by the all-layers campaign): a campaign that
        // completed, then lost its whole results journal to a tear,
        // must not latch `done` from the still-drained queue at the
        // recovery that follows — the heal path needs pump grants.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::only(Layer::Service);
        plan.service = ServiceFaultPlan {
            faults: vec![
                ServiceFault::TornResultWrite {
                    keep_frac: 0.12248394148650728,
                },
                ServiceFault::TornResultWrite {
                    keep_frac: 0.11895633382522722,
                },
            ],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
    }

    #[test]
    fn high_bit_flip_in_a_queue_shard_recovers() {
        // Regression (found by the all-layers campaign): a bit-7 flip
        // leaves the shard invalid UTF-8; recovery must read it as
        // that line's checksum damage, not an unreadable journal —
        // the wedge here was every reopen failing until the fuel ran
        // out, stranding the campaign at 0 of 6 cells.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::only(Layer::Service);
        plan.service = ServiceFaultPlan {
            faults: vec![ServiceFault::CacheBitFlip {
                entry: 5,
                byte: 1439,
                bit: 7,
            }],
        };
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
    }

    #[test]
    fn task_panic_composed_with_persistent_enospc_is_contained() {
        // Regression (found by the all-layers campaign): the storage fault
        // aborts the batch before the in-batch lease-expiry reclaim
        // can land, so the panicked task's lease is reclaimed at the
        // next recovery boundary instead — which must satisfy the
        // containment oracle, not convict it.
        let mut plan = ComposedPlan::quiet(2);
        plan.mask = LayerMask::none()
            .set(Layer::Disk, true)
            .set(Layer::Sched, true);
        plan.disk
            .faults
            .push(DiskFault::EnospcPersistent { at: 136 });
        plan.sched
            .faults
            .push(SchedFault::TaskPanic { at_start: 3 });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
    }

    #[test]
    fn stall_under_kill_and_transient_enospc_licenses_stranded_executions() {
        // Regression (found by the all-layers campaign): a transient
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
        plan.transport
            .faults
            .push(TransportFault::GatewayKill { cells: 1, point: 1 });
        plan.disk
            .faults
            .push(DiskFault::EnospcTransient { at: 132, ops: 5 });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.service.completed, CELLS);
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
    }

    #[test]
    fn kill_crash_interaction_exercises_both_layers() {
        // A hand-built cross-layer schedule: an orchestrator kill
        // (service layer) composed with a reordering power cut (disk
        // layer) and a gateway kill (transport layer). The acked-set
        // replay must survive the restart and the artifact must stay
        // byte-identical.
        let mut plan = ComposedPlan::quiet(2);
        plan.service
            .faults
            .push(ServiceFault::WorkerKill { cells: 2 });
        plan.transport
            .faults
            .push(TransportFault::GatewayKill { cells: 1, point: 1 });
        plan.disk.faults.push(DiskFault::PowerLoss {
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

    // ---- One layer at a time: the conductor under a one-layer mask
    // is that layer's whole harness. ----

    /// A hand-built schedule for `layer` alone.
    fn one_layer(
        layer: Layer,
        threads: usize,
        fill: impl FnOnce(&mut ComposedPlan),
    ) -> ComposedPlan {
        let mut plan = ComposedPlan::quiet(threads).masked(LayerMask::only(layer));
        fill(&mut plan);
        plan
    }

    /// The fault-free mutating-op horizon disk fault positions are
    /// drawn from.
    fn horizon() -> u64 {
        run(&ComposedPlan::quiet(2)).ledger.disk.disk.ops
    }

    #[test]
    fn sampled_one_layer_schedules_uphold_every_oracle() {
        let space = ComposedFaultSpace {
            disk: DiskFaultSpace::new(horizon()),
            ..space()
        };
        for (layer, seed, count) in [
            (Layer::Service, 11, 10),
            (Layer::Transport, 23, 10),
            (Layer::Disk, 0xD15C, 100),
            (Layer::Sched, 23, 8),
        ] {
            for index in 0..count {
                let plan = space.sample(seed, index).masked(LayerMask::only(layer));
                let report = run(&plan);
                assert!(
                    report.passed(),
                    "{} schedule {index} ({plan:?}) violated: {:?}\nledger: {:?}",
                    layer.name(),
                    report.violations,
                    report.ledger
                );
            }
        }
    }

    #[test]
    fn a_kill_heavy_transport_plan_survives_and_counts_its_incarnations() {
        let plan = one_layer(Layer::Transport, 2, |p| {
            p.transport = TransportFaultPlan {
                faults: vec![
                    TransportFault::GatewayKill { cells: 1, point: 1 },
                    TransportFault::GatewayKill { cells: 2, point: 0 },
                    TransportFault::GatewayKill { cells: 1, point: 2 },
                ],
            }
        });
        let report = run(&plan);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(
            report.ledger.gateway.incarnations >= 4,
            "each kill adds incarnations"
        );
        assert_eq!(report.ledger.gateway.completed, CELLS);
    }

    #[test]
    fn a_power_cut_mid_campaign_restarts_and_stays_byte_identical() {
        let plan = one_layer(Layer::Disk, 2, |p| {
            p.disk.faults.push(DiskFault::PowerLoss {
                at: horizon() / 2,
                reorder: false,
                keep_seed: 7,
            })
        });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.ledger.disk.disk.power_losses, 1);
        assert!(report.ledger.disk.restarts >= 1);
        assert_eq!(report.ledger.disk.completed, CELLS);
        assert_eq!(
            report.ledger.artifact_digest,
            report.ledger.reference_digest
        );
    }

    #[test]
    fn injected_panic_is_reclaimed_and_invisible_in_the_artifact() {
        let plan = one_layer(Layer::Sched, 4, |p| {
            p.sched.faults.push(SchedFault::TaskPanic { at_start: 3 })
        });
        let report = run(&plan);
        assert!(
            report.passed(),
            "panic plan violated: {:?}\nledger: {:?}",
            report.violations,
            report.ledger
        );
        let l = &report.ledger.sched;
        assert_eq!((l.panics_injected, l.panics_caught), (1, 1));
        assert!(l.panic_reclaimed >= 1);
        assert_eq!(
            report.ledger.executed_true, CELLS,
            "a contained panic re-runs nothing"
        );
    }

    #[test]
    fn thread_change_and_lease_race_pass_under_one_schedule() {
        let plan = one_layer(Layer::Sched, 2, |p| {
            p.sched.faults = vec![
                SchedFault::ThreadCountChange {
                    after_commits: 3,
                    threads: 8,
                },
                SchedFault::LeaseExpiryRace { at_lease: 2 },
            ]
        });
        let report = run(&plan);
        assert!(
            report.passed(),
            "mixed plan violated: {:?}\nledger: {:?}",
            report.violations,
            report.ledger
        );
        let l = &report.ledger.sched;
        assert_eq!(l.threads, 8, "the change took effect");
        assert_eq!((l.stale_presented, l.stale_rejected), (1, 1));
    }

    // ---- Coverage the one-layer masks gained in this crate. ----

    #[test]
    fn a_service_only_stale_lease_is_presented_and_rejected() {
        // With only this layer armed there is no other incarnation
        // boundary to ride: the fault must open its own, early enough
        // that the lease it names is still to be granted.
        let plan = one_layer(Layer::Service, 2, |p| {
            p.service
                .faults
                .push(ServiceFault::StaleLease { at_lease: 2 })
        });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let l = &report.ledger.service;
        assert_eq!((l.stale_presented, l.stale_rejected), (1, 1));
    }

    #[test]
    fn a_cache_bit_flip_rots_a_real_entry_and_the_checksum_quarantines_it() {
        // Four cells commit and cache; the flip rots entry 0 at rest;
        // the tear then destroys every journal line, so the heal probes
        // the cache for each — and must quarantine the rotten entry and
        // re-execute that one cell instead of serving its bytes.
        let plan = one_layer(Layer::Service, 2, |p| {
            p.service.faults = vec![
                ServiceFault::OrchestratorKillAfterCommit { cells: 4 },
                ServiceFault::CacheBitFlip {
                    entry: 0,
                    byte: 40,
                    bit: 3,
                },
                ServiceFault::TornResultWrite { keep_frac: 0.0 },
            ]
        });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let l = &report.ledger;
        assert!(l.service.cache_corruption_caught >= 1, "{:?}", l.service);
        assert!(l.service.destroyed_results >= 1);
        assert_eq!(l.disk.corrupt_accepted, 0);
        assert_eq!(l.artifact_digest, l.reference_digest);
    }

    #[test]
    fn a_revived_service_keeps_the_panic_reclaim_it_recorded_before_the_stall() {
        // Regression (found at seed 7, schedule 223 of the all-layers
        // window): the panic's leases are reclaimed in incarnation one's
        // service; a later ENOSPC stalls that service and the gateway
        // revives the campaign in place with a fresh one, whose
        // counters start at zero. The first one's must already be in
        // the books, or the containment oracle convicts a contained
        // panic.
        let mut plan = ComposedPlan::quiet(4);
        plan.mask = LayerMask::all().without(Layer::Md);
        plan.service.faults.push(ServiceFault::CacheBitFlip {
            entry: 2,
            byte: 3081,
            bit: 4,
        });
        plan.transport.faults = vec![
            TransportFault::ConnectionFlood { conns: 3 },
            TransportFault::MalformedRequest { variant: 2 },
            TransportFault::MidResponseDisconnect { after: 3 },
        ];
        plan.disk
            .faults
            .push(DiskFault::EnospcTransient { at: 194, ops: 8 });
        plan.sched
            .faults
            .push(SchedFault::TaskPanic { at_start: 2 });
        let report = run(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let l = &report.ledger;
        assert!(l.sched.panic_reclaimed >= 1);
        assert!(
            l.service.incarnations > l.gateway.incarnations,
            "the schedule must exercise an in-place revival: {l:?}"
        );
    }
}
