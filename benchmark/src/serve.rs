//! `serve_paced`: the real `serve --quick --threads 1` binary as a
//! child process on a fresh root, driven by an **open loop** — one
//! thread submits a 24-cell campaign every second, a second polls
//! status 25 times a second — each request on its own
//! `Connection: close` socket and timed from the instant it was due.

use crate::common::{draw_tenant, shuffle, timed_setup, Ctx, Outcome};
use crate::guard::{peak_rss_mb, ServeChild, TempRoot};
use crate::http::{request, Reply};
use crate::openloop::{fire, Sample, Timetable};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::svc::{exec_quick, run_campaign, JournalOracle};
use crate::trace::{SpanId, Tracer};
use cpc_cluster::SplitMix64;
use cpc_workload::full_factorial;
use cpc_workload::runner::quick_system;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The processor counts of every submission, in seed-drawn order: a
/// small and a large decomposition, 24 cells, about half a second of
/// pump work on the reference host. (Ten campaigns fit a 10 s run;
/// with 48-cell campaigns every 2 s only five would, and the median of
/// five turnarounds follows every multi-second hiccup of the host.)
pub const SERVE_COUNTS: [usize; 2] = [2, 8];
/// Cells per submission: 12 platform cells per processor count.
pub const SERVE_CELLS: usize = 12 * SERVE_COUNTS.len();
/// A campaign is due every second, so the server is busy about half
/// the time.
pub const SUBMIT_PERIOD: Duration = Duration::from_millis(1000);
/// 25 status polls a second.
pub const POLL_PERIOD: Duration = Duration::from_millis(40);
/// A poll is on time when answered 200 within 5 ms of its due time —
/// about 100x the idle p99, so only a held gateway lock misses it.
pub const POLL_LIMIT: Duration = Duration::from_millis(5);
/// Socket timeout of every request; a slower reply is a failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long past the timetable the last campaigns may take to drain.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// A submitted campaign as the two client threads share it.
#[derive(Debug, Clone)]
struct Submitted {
    id: String,
    counts: Vec<usize>,
    due: Instant,
    /// When the first poll reporting `"done":true` was answered.
    done_at: Option<Instant>,
}

/// Everything the open loop observed.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// `(counts, id, turnaround seconds)` per drained campaign.
    pub campaigns: Vec<(Vec<usize>, String, f64)>,
    pub submitted: usize,
    /// Latency from the due time of each poll inside the measured
    /// window, seconds, with whether it was answered 200.
    pub polls: Vec<(f64, bool)>,
    /// Same for the submissions.
    pub submit_acks: Vec<(f64, bool)>,
    /// Polls sent while at least one campaign was still running.
    pub busy_polls: Vec<f64>,
    pub gen_late_max_s: f64,
    pub failed_requests: u64,
    pub shed: u64,
    pub requests: u64,
}

impl Observed {
    pub fn polls_on_time(&self) -> usize {
        self.polls
            .iter()
            .filter(|(lat, ok)| *ok && *lat <= POLL_LIMIT.as_secs_f64())
            .count()
    }
}

fn extract_campaign_id(body: &str) -> Option<String> {
    let rest = body.split_once("\"campaign\":\"")?.1;
    Some(rest.split_once('"')?.0.to_string())
}

fn traced_request(
    tracer: &Tracer,
    parent: SpanId,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Reply> {
    let span = tracer.open(
        parent,
        "gateway",
        "http",
        vec![("method", method.to_string()), ("path", path.to_string())],
    );
    let reply = request(addr, method, path, body, REQUEST_TIMEOUT);
    let status = match &reply {
        Ok(r) => r.status.to_string(),
        Err(e) => format!("error: {e}"),
    };
    tracer.annotate(span, "status", status);
    tracer.close(span);
    reply
}

/// Drives the open loop against `addr` for `seconds`: `n_submit`
/// campaigns on the 2 s timetable, polls on the 40 ms timetable until
/// the window ends *and* every submitted campaign has drained.
pub fn open_loop(
    addr: SocketAddr,
    seed_rng: &mut SplitMix64,
    seconds: f64,
    tracer: &Tracer,
    parent: SpanId,
) -> Observed {
    // The last submission must still fit its half second of work into
    // the window.
    let n_submit = ((seconds - 0.5) / SUBMIT_PERIOD.as_secs_f64())
        .floor()
        .max(0.0) as usize
        + 1;
    let plan: Vec<(String, Vec<usize>)> = (0..n_submit)
        .map(|_| {
            let mut counts = SERVE_COUNTS.to_vec();
            shuffle(&mut counts, seed_rng);
            (draw_tenant(seed_rng), counts)
        })
        .collect();
    let shared: Mutex<Vec<Submitted>> = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(50);
    let window_end = start + Duration::from_secs_f64(seconds);
    let mut obs = Observed::default();

    let submissions = std::thread::scope(|scope| {
        // Thread A: the submitter.
        let submitter = scope.spawn(|| {
            let mut table = Timetable::new(start, SUBMIT_PERIOD);
            let mut results: Vec<(Sample, bool, bool)> = Vec::new();
            for (tenant, counts) in &plan {
                let body = format!(
                    "{{\"tenant\":\"{tenant}\",\"cells\":[{}]}}",
                    counts
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                let (sample, reply) = fire(&mut table, |_, _| {
                    traced_request(tracer, parent, addr, "POST", "/campaigns", Some(&body))
                });
                let ok = reply.as_ref().is_ok_and(Reply::ok);
                let shed = reply.as_ref().is_ok_and(Reply::shed);
                if let Some(id) = reply
                    .ok()
                    .filter(Reply::ok)
                    .and_then(|r| extract_campaign_id(&r.body))
                {
                    shared
                        .lock()
                        .expect("client threads do not panic")
                        .push(Submitted {
                            id,
                            counts: counts.clone(),
                            due: sample.due,
                            done_at: None,
                        });
                }
                results.push((sample, ok, shed));
            }
            results
        });

        // Thread B (this one): the poller.
        let mut table = Timetable::new(start, POLL_PERIOD);
        let give_up = window_end + DRAIN_GRACE;
        loop {
            // Read before the list: a campaign pushed after this is
            // seen on the next turn, never missed.
            let all_submitted = submitter.is_finished();
            let (target, all_done) = {
                let s = shared.lock().expect("client threads do not panic");
                (
                    s.iter().find(|c| c.done_at.is_none()).map(|c| c.id.clone()),
                    s.iter().all(|c| c.done_at.is_some()),
                )
            };
            let now = Instant::now();
            if (now >= window_end && all_submitted && all_done) || now >= give_up {
                break;
            }
            let path = match &target {
                Some(id) => format!("/campaigns/{id}"),
                None => "/healthz".to_string(),
            };
            let (sample, reply) = fire(&mut table, |_, _| {
                traced_request(tracer, parent, addr, "GET", &path, None)
            });
            let ok = reply.as_ref().is_ok_and(|r| r.status == 200);
            let lat = sample.latency().as_secs_f64();
            obs.requests += 1;
            if !ok {
                obs.failed_requests += 1;
            }
            if reply.as_ref().is_ok_and(Reply::shed) {
                obs.shed += 1;
            }
            obs.gen_late_max_s = obs.gen_late_max_s.max(sample.lateness().as_secs_f64());
            if sample.due < window_end {
                obs.polls.push((lat, ok));
            }
            if target.is_some() {
                obs.busy_polls.push(lat);
            }
            if let (Some(id), Ok(r)) = (&target, &reply) {
                if r.status == 200 && r.body.contains("\"done\":true") {
                    let mut s = shared.lock().expect("client threads do not panic");
                    if let Some(c) = s.iter_mut().find(|c| &c.id == id) {
                        c.done_at = Some(sample.finished);
                    }
                }
            }
        }
        submitter.join().expect("client threads do not panic")
    });

    for (sample, ok, shed) in submissions {
        obs.requests += 1;
        if !ok {
            obs.failed_requests += 1;
        }
        if shed {
            obs.shed += 1;
        }
        obs.gen_late_max_s = obs.gen_late_max_s.max(sample.lateness().as_secs_f64());
        obs.submit_acks.push((sample.latency().as_secs_f64(), ok));
    }
    obs.submitted = plan.len();
    for c in shared.into_inner().expect("client threads do not panic") {
        if let Some(done_at) = c.done_at {
            obs.campaigns.push((
                c.counts,
                c.id,
                done_at.saturating_duration_since(c.due).as_secs_f64(),
            ));
        }
    }
    obs
}

/// The reference lines for the serve journals: one campaign run
/// directly through `JobService` over the same quick cells.
pub fn direct_reference(tmp: &Path) -> Result<JournalOracle, String> {
    let root =
        TempRoot::new(tmp, "serve-ref").map_err(|e| format!("cannot create a temp root: {e}"))?;
    let system = quick_system();
    let tasks = full_factorial(&SERVE_COUNTS);
    let dir = root.path().join("direct");
    run_campaign(cpc_vfs::real_fs(), &dir, None, &tasks, |p| {
        exec_quick(&system, p)
    })?;
    let mut oracle = JournalOracle::default();
    oracle.learn(&cpc_vfs::RealFs, &dir.join("journal.jsonl"), &tasks)?;
    Ok(oracle)
}

/// Runs one small untimed campaign through the child, so the first
/// measured request meets a warmed process.
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    let body = "{\"tenant\":\"warm-up\",\"cells\":[2]}";
    let reply = request(addr, "POST", "/campaigns", Some(body), REQUEST_TIMEOUT)
        .map_err(|e| format!("warm-up submission failed: {e}"))?;
    let id = extract_campaign_id(&reply.body)
        .filter(|_| reply.ok())
        .ok_or_else(|| format!("warm-up submission was refused: {reply:?}"))?;
    let deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < deadline {
        let r = request(
            addr,
            "GET",
            &format!("/campaigns/{id}"),
            None,
            REQUEST_TIMEOUT,
        )
        .map_err(|e| format!("warm-up poll failed: {e}"))?;
        if r.body.contains("\"done\":true") {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err("the warm-up campaign never drained".to_string())
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let binary = ctx.serve_binary;
    let oracle = direct_reference(&ctx.env.tmp())?;
    let mut rng = SplitMix64::new(ctx.seed);

    // Set-up: a fresh root and a child that has announced its port.
    let (spawned, setup_s) = timed_setup(|| -> Result<(TempRoot, ServeChild), String> {
        let root = TempRoot::new(&ctx.env.tmp(), "serve-root")
            .map_err(|e| format!("cannot create a temp root: {e}"))?;
        let child = ServeChild::spawn(binary, root.path())
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        Ok((root, child))
    });
    // Field order matters on drop: the child dies before its root goes.
    let (root, mut child) = spawned?;
    warm_up(child.addr)?;

    let span = ctx
        .tracer
        .open(SpanId::NONE, "harness", "repetition", Vec::new());
    let obs = open_loop(child.addr, &mut rng, ctx.seconds, ctx.tracer, span);
    ctx.tracer.close(span);

    let child_peak_rss_mb = peak_rss_mb(Some(child.guard.id()));
    let crashed = child.guard.exited();

    let mut attempted = obs.requests;
    let mut failed = obs.failed_requests;
    // A campaign that never drained is a failed operation.
    attempted += obs.submitted as u64;
    failed += (obs.submitted - obs.campaigns.len()) as u64;
    // Each drained campaign's journal against the direct reference.
    for (counts, id, _) in &obs.campaigns {
        attempted += 1;
        let journal = root.path().join("campaigns").join(id).join("journal.jsonl");
        if !oracle.check(&cpc_vfs::RealFs, &journal, &full_factorial(counts)) {
            failed += 1;
            eprintln!("MISMATCH: serve campaign {id} ({counts:?}) differs from the direct JobService journal");
        }
    }
    if crashed {
        failed += 1;
        attempted += 1;
        eprintln!("MISMATCH: the serve child exited during the run");
    }
    drop(child);
    drop(root);

    if obs.campaigns.is_empty() || obs.polls.is_empty() {
        return Err(format!(
            "the open loop observed nothing usable: {} of {} campaigns drained, {} polls",
            obs.campaigns.len(),
            obs.submitted,
            obs.polls.len()
        ));
    }
    let turnarounds: Vec<f64> = obs.campaigns.iter().map(|c| c.2).collect();
    let on_time = obs.polls_on_time();
    let poll_lat: Vec<f64> = obs.polls.iter().map(|p| p.0).collect();
    let tail = highest_supported_percentile(poll_lat.len())
        .map(|p| format!(", p{p} {:.1} ms", percentile(&poll_lat, p) * 1e3))
        .unwrap_or_default();
    Ok(Outcome {
        setup_s,
        // Cells a campaign gets through per second of its turnaround.
        cells_per_s: SERVE_CELLS as f64 / median(&turnarounds),
        turnaround_p50_s: median(&turnarounds),
        ok_frac: on_time as f64 / obs.polls.len() as f64,
        child_peak_rss_mb,
        attempted,
        failed,
        base: format!(
            "{} of {} campaigns drained (turnarounds {:?}); {on_time} of {} polls on time (median {:.2} ms{tail}); generator at most {:.2} ms late; {} requests, {} shed",
            turnarounds.len(),
            obs.submitted,
            turnarounds.iter().map(|t| (t * 1e3).round() / 1e3).collect::<Vec<_>>(),
            obs.polls.len(),
            median(&poll_lat) * 1e3,
            obs.gen_late_max_s * 1e3,
            obs.requests,
            obs.shed
        ),
        observed: Some(obs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_ids_come_out_of_submission_replies() {
        assert_eq!(
            extract_campaign_id("{\"campaign\":\"c-00ab\",\"cells\":48}"),
            Some("c-00ab".to_string())
        );
        assert_eq!(extract_campaign_id("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn a_poll_counts_as_on_time_only_when_answered_200_inside_the_limit() {
        let obs = Observed {
            polls: vec![(0.001, true), (0.0049, true), (0.006, true), (0.001, false)],
            ..Observed::default()
        };
        assert_eq!(obs.polls_on_time(), 2);
    }
}
