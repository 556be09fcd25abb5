//! The gateway's `Conn` test double: a scripted connection that plays
//! hostile clients deterministically on a virtual clock — fixed request
//! bytes dripped at a chosen chunk size and per-read delay, a write
//! budget after which the peer "disconnects", a counter convicting any
//! read issued past the deadline — plus [`drive`], one such connection
//! through a gateway with the handler's panics contained. The chaos
//! conductor (`cpc-chaos`) turns a transport fault plan into these;
//! the concurrent-connection test below shares one gateway between
//! accept workers and a pump.

use crate::gateway::{CampaignModel, Gateway};
use crate::http::Conn;
use std::io;

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

/// One connection through the gateway with panic containment.
/// Returns the connection for response inspection (its
/// [`overruns`](ScriptedConn::overruns) are the caller's to charge)
/// and whether the handler panicked.
pub fn drive<M: CampaignModel>(
    gw: &mut Gateway<M>,
    mut conn: ScriptedConn,
) -> (ScriptedConn, bool) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gw.handle(&mut conn)));
    (conn, outcome.is_err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_cells, DemoModel};
    use crate::gateway::{campaign_id, GatewayConfig};
    use crate::http::HttpLimits;
    use cpc_workload::service::{artifact_digest, JobService, ServiceConfig};
    use serde_json::Value;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-gwchaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
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

        let overruns: usize = std::thread::scope(|s| {
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
        assert_eq!(
            out.executed, 6,
            "racing submissions must not double-execute"
        );

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
}
