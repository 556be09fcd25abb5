//! The campaign gateway as a process: serves the overload-safe
//! multi-tenant HTTP/JSON gateway over real measurement cells, plus a
//! tiny raw-TCP client for CI smokes.
//!
//! ```text
//! cargo run --release -p cpc-bench --bin serve -- \
//!     --root DIR [--port N] [--quick] [--kill-after N]
//! cargo run --release -p cpc-bench --bin serve -- --port N --get PATH
//! cargo run --release -p cpc-bench --bin serve -- --port N --post PATH --body JSON
//! cargo run --release -p cpc-bench --bin serve -- --demo-campaign
//! ```
//!
//! * **Server mode** (default): binds `127.0.0.1:PORT` (`--port 0`
//!   picks a free port; the chosen address is printed first), opens
//!   the gateway over `--root` — recovering any campaign already
//!   durable there — and serves submissions whose `cells` name
//!   processor counts; each count expands to the full factor space,
//!   so a submission of `[1,2,4,8]` is exactly the direct
//!   `campaign --workers` task list and the resulting journal is
//!   byte-identical to the direct path's. A pump thread advances
//!   DRR-granted cells as they arrive — parked on a condvar between
//!   grants, woken by each handled request — executing them on an
//!   N-thread `cpc-pool` under `--threads N` (default 1;
//!   results commit in task-index order, so the journal is
//!   byte-identical at every thread count). The gateway lock guards
//!   bookkeeping only: the pump holds it to grant and lease a batch
//!   and again to commit it (`Gateway::pump_shared`), never while the
//!   cells execute, so a status poll or a submission is answered
//!   between any two cells of a burst, not after its last. If the
//!   pump thread ever panics the process prints the panic and exits
//!   with code 70 rather than serve polls for campaigns that will
//!   never advance (restart on the same `--root` resumes).
//!   Connections are accepted by a bounded worker pool (the host's
//!   available parallelism, clamped to 1..=8) that reads requests and
//!   writes responses outside the gateway lock, so a slow client
//!   stalls one worker, not the server. `--kill-after N` arms the
//!   service kill switch: the process exits with code 3 after its
//!   N-th fresh cell, and restarting with the same `--root` resumes
//!   from the durable queue alone.
//! * **Client mode** (`--get` / `--post`): one raw-TCP HTTP request
//!   against a running server; the response is printed. Exit 0 on
//!   2xx, 4 on a shed 429/503/507 (retry later), 1 on any other
//!   status.
//! * **`--enospc-while FILE`** (server mode): every write the gateway
//!   makes fails with ENOSPC while FILE exists — the CI disk-pressure
//!   smoke touches the file, watches a submission shed 507 over the
//!   wire, removes it, and watches the same campaign complete.
//! * **`--demo-campaign`**: prints a submission body for the quick
//!   campaign, ready to pipe into `--post /campaigns --body`.
use cpc_bench::cli::Args;
use cpc_gateway::{CampaignModel, Gateway, GatewayConfig, TcpConn};
use cpc_md::EnergyModel;
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::figures::EXIT_CELL_BUDGET;
use cpc_workload::full_factorial;
use cpc_workload::runner::measure_with_model;
use cpc_workload::service::{task_key, KillPoint};
use cpc_workload::Measurement;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const USAGE: &str = "usage: serve --root DIR [--port N] [--quick] [--threads N] [--kill-after N]\n\
     \x20      [--enospc-while FILE]\n\
     \x20      | --port N --get PATH | --port N --post PATH --body JSON\n\
     \x20      | --demo-campaign";

/// Exit code of a server whose pump thread panicked (sysexits'
/// EX_SOFTWARE) — distinct from `EXIT_CELL_BUDGET`, the injected kill.
const EXIT_PUMP_PANIC: i32 = 70;

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

/// The real campaign model: cells are experiment points, executing
/// one runs the measurement, and the protocol string matches the
/// direct `campaign` binary so journals are interchangeable.
struct MeasurementModel {
    system: cpc_md::System,
    steps: usize,
    model: EnergyModel,
}

impl CampaignModel for MeasurementModel {
    type Task = ExperimentPoint;
    type Result = Measurement;

    fn parse_cells(&self, cells: &Value) -> Result<Vec<ExperimentPoint>, String> {
        let arr = cells
            .as_array()
            .ok_or_else(|| "cells must be a JSON array of processor counts".to_string())?;
        let mut counts = Vec::new();
        for v in arr {
            let n = v
                .as_u64()
                .ok_or_else(|| "processor counts must be positive integers".to_string())?;
            if n == 0 || n > 64 {
                return Err(format!("processor count {n} outside 1..=64"));
            }
            counts.push(n as usize);
        }
        if counts.is_empty() {
            return Err("cells must name at least one processor count".to_string());
        }
        Ok(full_factorial(&counts))
    }

    fn key_of(r: &Measurement) -> String {
        task_key(&r.point).expect("experiment point serializes")
    }

    fn exec(&self, point: &ExperimentPoint) -> (Measurement, f64) {
        let m = measure_with_model(&self.system, *point, self.steps, self.model);
        let elapsed = m.energy_time();
        (m, elapsed)
    }
}

/// One raw-TCP request against a running server; returns the process
/// exit code. Raw on purpose: the smoke must see exactly what a
/// from-scratch client sees, not what our own Conn plumbing shows.
fn client(port: u16, method: &str, path: &str, body: Option<&str>) -> i32 {
    let stream = TcpStream::connect(("127.0.0.1", port))
        .unwrap_or_else(|e| die(format!("cannot connect to 127.0.0.1:{port}: {e}")));
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("a finite timeout");
    let mut stream = stream;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    if let Err(e) = stream.write_all(request.as_bytes()) {
        die(format!("cannot send request: {e}"));
    }
    let mut response = Vec::new();
    if let Err(e) = stream.read_to_end(&mut response) {
        die(format!("cannot read response: {e}"));
    }
    let text = String::from_utf8_lossy(&response);
    print!("{text}");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die("response carried no status line"));
    match status {
        200..=299 => 0,
        429 | 503 | 507 => 4,
        _ => 1,
    }
}

fn serve(
    root: &str,
    port: u16,
    quick: bool,
    threads: usize,
    kill_after: Option<usize>,
    enospc_while: Option<String>,
) -> ! {
    let system = if quick {
        cpc_workload::runner::quick_system()
    } else {
        cpc_workload::runner::myoglobin_shared().clone()
    };
    let (steps, model) = if quick {
        (
            2,
            EnergyModel::Pme(cpc_workload::runner::quick_pme_params()),
        )
    } else {
        (
            cpc_workload::runner::PAPER_STEPS,
            EnergyModel::Pme(cpc_workload::runner::paper_pme_params()),
        )
    };
    let mut cfg = GatewayConfig::new(root, format!("campaign steps={steps} model={model:?}"));
    cfg.threads = threads.max(1);
    cfg.kill = kill_after.map(|n| (n, KillPoint::MidCommit));
    let limits = cfg.limits.clone();
    let model = MeasurementModel {
        system,
        steps,
        model,
    };
    let gw = match enospc_while {
        Some(trigger) => {
            eprintln!("serve: disk fills while {trigger} exists");
            Gateway::open_on(Arc::new(cpc_vfs::EnospcTrigger::new(trigger)), cfg, model)
        }
        None => Gateway::open(cfg, model),
    }
    .unwrap_or_else(|e| die(format!("cannot open gateway in {root}: {e}")));

    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| die(format!("cannot bind 127.0.0.1:{port}: {e}")));
    let addr = listener
        .local_addr()
        .expect("a bound socket has an address");
    // The first line of output is the contract with wrappers: the
    // chosen address, even under --port 0.
    println!("serve: listening on {addr} (root {root})");

    let gw = Arc::new(Mutex::new(gw));
    // Pump wakeup: every handled request rings the condvar (a new
    // submission means new work; any other request still deserves
    // prompt progress on whatever is queued), so the pump parks
    // between grants instead of sleep-polling. The timed wait is the
    // liveness backstop: stalled-campaign revival and retry horizons
    // advance on pump calls alone, with no request to ring the bell.
    let wake = Arc::new((Mutex::new(false), Condvar::new()));
    let pump_gw = Arc::clone(&gw);
    let pump_wake = Arc::clone(&wake);
    std::thread::spawn(move || {
        let pump = || loop {
            let report = Gateway::pump_shared(&pump_gw, 4);
            if report.killed {
                eprintln!(
                    "serve: injected kill fired; exiting — restart with the same --root to resume"
                );
                eprintln!("{}", cpc_charmm::ScriptStore::global().stats());
                std::process::exit(EXIT_CELL_BUDGET);
            }
            if report.granted > 0 {
                // Work flowed: pump again immediately.
                continue;
            }
            let (pending, bell) = &*pump_wake;
            let mut rung = pending.lock().expect("pump wake lock");
            while !*rung {
                let (guard, timeout) = bell
                    .wait_timeout(rung, Duration::from_millis(500))
                    .expect("pump wake lock");
                rung = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            *rung = false;
        };
        // Cells execute outside the gateway lock, so a panic on this
        // thread need not poison it: without this boundary the accept
        // workers would answer 200 forever for campaigns nothing
        // advances. (A panicking *cell* never gets here — the pool
        // contains it and the lease path re-executes it.)
        if let Err(payload) = catch_unwind(AssertUnwindSafe(pump)) {
            eprintln!(
                "serve: pump thread panicked ({}); exiting — restart with the same --root to resume",
                cpc_pool::panic_message(payload.as_ref())
            );
            std::process::exit(EXIT_PUMP_PANIC);
        }
    });

    // Bounded accept-worker pool: `accept` is thread-safe on a shared
    // listener, so each worker loops accept -> handle -> ring the pump
    // bell. Requests are read and responses written outside the
    // gateway lock (`handle_shared`), so one slowloris peer stalls
    // only its own worker; routing itself stays serialized, which
    // keeps admission order — and therefore the journal bytes —
    // identical to the single-threaded accept loop's.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    eprintln!("serve: {workers} accept worker(s)");
    let listener = &listener;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let gw = Arc::clone(&gw);
            let wake = Arc::clone(&wake);
            let limits = &limits;
            s.spawn(move || loop {
                let Ok((stream, _)) = listener.accept() else {
                    continue;
                };
                let mut conn = TcpConn::new(stream, limits.deadline);
                Gateway::handle_shared(&gw, limits, &mut conn);
                let (pending, bell) = &*wake;
                *pending.lock().expect("pump wake lock") = true;
                bell.notify_one();
            });
        }
    });
    unreachable!("accept workers never exit");
}

fn main() {
    let mut args = Args::parse("serve", USAGE);
    if args.flag("--demo-campaign") {
        args.finish();
        println!("{{\"tenant\":\"ci\",\"cells\":[1,2,4,8]}}");
        return;
    }
    let port: u16 = args.parsed("--port", "a TCP port").unwrap_or(7070);
    let get = args.value("--get");
    let post = args.value("--post");
    let body = args.value("--body");
    if let Some(path) = get {
        if post.is_some() || body.is_some() {
            args.conflict("--get excludes --post/--body");
        }
        args.finish();
        std::process::exit(client(port, "GET", &path, None));
    }
    if let Some(path) = post {
        let Some(body) = body else {
            args.conflict("--post requires --body JSON");
        };
        args.finish();
        std::process::exit(client(port, "POST", &path, Some(&body)));
    }
    if body.is_some() {
        args.conflict("--body without --post");
    }
    let root = args
        .value("--root")
        .unwrap_or_else(|| "results/serve".to_string());
    let quick = args.flag("--quick");
    let threads: usize = args
        .parsed("--threads", "an integer thread count")
        .unwrap_or(1);
    let kill_after: Option<usize> = args.parsed("--kill-after", "an integer fresh-cell count");
    let enospc_while = args.value("--enospc-while");
    args.finish();
    if let Err(e) = std::fs::create_dir_all(&root) {
        die(format!("cannot create {root}: {e}"));
    }
    serve(&root, port, quick, threads, kill_after, enospc_while);
}
