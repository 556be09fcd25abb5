//! Gateway-granularity robustness: the overload-safe multi-tenant
//! HTTP/JSON campaign gateway must (1) keep a well-behaved tenant's
//! throughput within a constant factor of uncontended service while a
//! flooding tenant is shed with 429s, (2) produce byte-identical
//! artifacts to the direct (no-HTTP) campaign path on real
//! measurement cells, fault-free and across `kill -9`, and (3) uphold
//! every gateway oracle over a broad sampled matrix of transport
//! fault schedules.

use cpc_chaos::{run_composed_chaos, ComposedPlan, Layer, LayerMask, TransportFaultSpace};
use cpc_gateway::{
    campaign_id, demo_cells, demo_flood_cells, http_get, http_post, CampaignModel, DemoModel,
    Gateway, GatewayConfig, ScriptedConn, TenantPolicy,
};
use cpc_md::EnergyModel;
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::full_factorial;
use cpc_workload::runner::{measure_with_model, quick_pme_params, quick_system};
use cpc_workload::service::{artifact_digest, task_key, JobService, KillPoint, ServiceConfig};
use cpc_workload::Measurement;
use serde_json::Value;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cpc-gateway-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn send<M: CampaignModel>(gw: &mut Gateway<M>, bytes: Vec<u8>) -> ScriptedConn {
    let mut conn = ScriptedConn::request(bytes);
    gw.handle(&mut conn);
    conn
}

fn submit<M: CampaignModel>(gw: &mut Gateway<M>, tenant: &str, cells: &str) -> ScriptedConn {
    send(
        gw,
        http_post(
            "/campaigns",
            &format!("{{\"tenant\":\"{tenant}\",\"cells\":{cells}}}"),
        ),
    )
}

fn demo_gateway(root: &PathBuf, max_pending_cells: usize) -> Gateway<DemoModel> {
    let mut cfg = GatewayConfig::new(root, "demo");
    cfg.policy = TenantPolicy {
        quantum: 2,
        max_pending_cells,
        aging_rounds: 4,
    };
    Gateway::open(cfg, DemoModel).expect("gateway opens")
}

/// Completed cells of one tenant's campaigns after exactly `budget`
/// DRR grants.
fn completed_after<M: CampaignModel>(gw: &mut Gateway<M>, tenant_id: &str, budget: usize) -> usize {
    let mut granted = 0;
    while granted < budget {
        let r = gw.pump(1);
        if r.granted == 0 {
            break;
        }
        granted += r.granted;
    }
    gw.outcome_of(tenant_id).map_or(0, |o| o.completed)
}

/// The DRR fairness contract: under a flood from one tenant, a
/// well-behaved tenant must keep at least 0.4x the cells-per-grant
/// throughput it gets on an uncontended gateway, and the flood's
/// over-bound submissions must shed with 429 + Retry-After.
#[test]
fn a_flooded_gateway_keeps_the_steady_tenant_at_04x_uncontended_throughput() {
    const BUDGET: usize = 24;
    let steady_cells = demo_cells(16);

    // Uncontended reference: the steady tenant alone.
    let root_u = tmp_dir("drr-uncontended");
    let mut gw = demo_gateway(&root_u, 64);
    assert_eq!(
        submit(&mut gw, "steady", &steady_cells).response_status(),
        Some(201)
    );
    let id = campaign_id("steady", "demo", &steady_cells);
    let uncontended = completed_after(&mut gw, &id, BUDGET);
    assert!(
        uncontended >= 8,
        "the reference makes progress: {uncontended}"
    );

    // Contended: same submission plus a flooding tenant filling its
    // admission bound with distinct campaigns.
    let root_c = tmp_dir("drr-contended");
    let mut gw = demo_gateway(&root_c, 32);
    assert_eq!(
        submit(&mut gw, "steady", &steady_cells).response_status(),
        Some(201)
    );
    for i in 0..4 {
        let cells = format!(
            "[{}]",
            (0..8)
                .map(|j| (1000 + 10 * i + j).to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(
            submit(&mut gw, "flood", &cells).response_status(),
            Some(201),
            "flood campaign {i} fits the bound"
        );
    }
    // The fifth crosses max_pending_cells = 32: shed, with advice.
    let conn = submit(&mut gw, "flood", "[2000,2001,2002,2003]");
    assert_eq!(
        conn.response_status(),
        Some(429),
        "over-bound flood is shed"
    );
    let retry: u64 = conn
        .response_header("Retry-After")
        .expect("shed responses carry Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!(retry >= 1, "retry advice is at least a second: {retry}");

    let contended = completed_after(&mut gw, &id, BUDGET);
    assert!(
        (contended as f64) >= 0.4 * (uncontended as f64),
        "DRR must hold the steady tenant at >= 0.4x uncontended: \
         {contended} contended vs {uncontended} uncontended in {BUDGET} grants"
    );

    let _ = std::fs::remove_dir_all(&root_u);
    let _ = std::fs::remove_dir_all(&root_c);
}

/// The real campaign model the `serve` binary exposes, inlined: cells
/// name processor counts, a submission expands to the full factor
/// space, and the protocol string matches the direct `campaign` path.
struct QuickModel {
    system: cpc_md::System,
    steps: usize,
    model: EnergyModel,
}

impl QuickModel {
    fn new() -> (Self, String) {
        let steps = 2;
        let model = EnergyModel::Pme(quick_pme_params());
        let protocol = format!("campaign steps={steps} model={model:?}");
        (
            QuickModel {
                system: quick_system(),
                steps,
                model,
            },
            protocol,
        )
    }
}

impl CampaignModel for QuickModel {
    type Task = ExperimentPoint;
    type Result = Measurement;

    fn parse_cells(&self, cells: &Value) -> Result<Vec<ExperimentPoint>, String> {
        let arr = cells
            .as_array()
            .ok_or_else(|| "cells must be a JSON array".to_string())?;
        let counts: Vec<usize> = arr
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| "bad count".to_string())
            })
            .collect::<Result<_, _>>()?;
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

/// Runs the direct (no-HTTP) service path over the same cells and
/// protocol; returns the digest of its results journal.
fn direct_reference(dir: &PathBuf, protocol: &str, counts: &[usize]) -> Option<u64> {
    let mut cfg = ServiceConfig::new(dir, protocol);
    cfg.shards = 4;
    let journal = cfg.journal_path();
    let (model, _) = QuickModel::new();
    let tasks = full_factorial(counts);
    let mut service =
        JobService::<Measurement>::open(cfg, QuickModel::key_of).expect("service opens");
    let out = service
        .run(&tasks, |t| model.exec(t))
        .expect("direct run drains");
    assert!(out.drained && out.abandoned == 0);
    artifact_digest(&journal)
}

#[test]
fn a_fault_free_gateway_campaign_is_byte_identical_to_the_direct_path() {
    let root = tmp_dir("mirror");
    let direct_dir = root.join("direct");
    let (model, protocol) = QuickModel::new();
    let want = direct_reference(&direct_dir, &protocol, &[1, 2]);
    assert!(want.is_some(), "reference journal is readable");

    let mut gw = Gateway::open(GatewayConfig::new(root.join("gw"), &protocol), model)
        .expect("gateway opens");
    let conn = submit(&mut gw, "ci", "[1,2]");
    assert_eq!(
        conn.response_status(),
        Some(201),
        "{:?}",
        conn.response_body()
    );
    while !gw.all_done() {
        assert!(
            gw.pump(8).granted > 0 || gw.all_done(),
            "the pump progresses"
        );
    }
    let id = campaign_id("ci", &protocol, "[1,2]");
    let got = artifact_digest(gw.config().campaign_journal(&id));
    assert_eq!(got, want, "HTTP submission must not change a single byte");

    let conn = send(&mut gw, http_get(&format!("/campaigns/{id}/results")));
    assert_eq!(conn.response_status(), Some(200));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_resume_through_http_reproduces_the_direct_journal() {
    let root = tmp_dir("killmirror");
    let direct_dir = root.join("direct");
    let (model, protocol) = QuickModel::new();
    let want = direct_reference(&direct_dir, &protocol, &[1]);

    // Incarnation 1: armed to die mid-commit at its 4th fresh cell.
    let mut cfg = GatewayConfig::new(root.join("gw"), &protocol);
    cfg.kill = Some((4, KillPoint::MidCommit));
    let mut gw = Gateway::open(cfg, model).expect("gateway opens");
    assert_eq!(submit(&mut gw, "ci", "[1]").response_status(), Some(201));
    let mut fuel = 0;
    while !gw.pump(4).killed {
        fuel += 1;
        assert!(fuel < 100, "the injected kill fires");
    }
    assert!(gw.is_dead());
    drop(gw);

    // Incarnation 2: recovery is construction — no resubmission, the
    // durable meta.json and queue alone must finish the campaign.
    let (model, _) = QuickModel::new();
    let mut gw = Gateway::open(GatewayConfig::new(root.join("gw"), &protocol), model)
        .expect("gateway reopens");
    while !gw.all_done() {
        assert!(gw.pump(8).granted > 0 || gw.all_done(), "resume progresses");
    }
    let id = campaign_id("ci", &protocol, "[1]");
    let got = artifact_digest(gw.config().campaign_journal(&id));
    assert_eq!(got, want, "kill-resume over HTTP must be byte-identical");
    let _ = std::fs::remove_dir_all(&root);
}

/// The CI-gate breadth contract: at least 100 sampled transport fault
/// schedules — malformed and truncated requests, slowloris readers,
/// mid-response disconnects, connection floods, gateway kills — and
/// every one must uphold all six gateway oracles, judged by the one
/// chaos conductor under a transport-only mask.
/// The JSON parser recurses per nesting level, and `POST /campaigns`
/// hands it bodies of up to `max_body_bytes`: the largest admissible
/// body of nothing but `[` must come back as a 400, not overflow the
/// handler's stack (an abort that no `catch_unwind` would see).
#[test]
fn a_body_of_a_quarter_million_open_brackets_is_a_400_not_a_dead_gateway() {
    let root = tmp_dir("deep-json");
    let mut gw = demo_gateway(&root, 64);
    let conn = send(&mut gw, http_post("/campaigns", &"[".repeat(256 * 1024)));
    assert_eq!(conn.response_status(), Some(400));
    let conn = send(&mut gw, http_get("/healthz"));
    assert_eq!(conn.response_status(), Some(200));
    assert_eq!(submit(&mut gw, "ci", "[1]").response_status(), Some(201));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_hundred_sampled_transport_schedules_uphold_every_gateway_oracle() {
    let space = TransportFaultSpace::new(6);
    for index in 0..100 {
        let mut plan = ComposedPlan::quiet(2).masked(LayerMask::only(Layer::Transport));
        plan.transport = space.sample(41, index);
        let report = run_composed_chaos(
            || DemoModel,
            &demo_cells(6),
            "demo",
            &plan,
            &demo_flood_cells,
            None,
        )
        .expect("schedule runs");
        assert!(
            report.passed(),
            "schedule {index} ({:?}) violated: {:?}\nledger: {:?}",
            plan.transport.faults,
            report.violations,
            report.ledger
        );
    }
}
