//! The benchmark's contract as data: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is
//! generated from these tables (`cpc-benchmark spec`) and a unit test
//! keeps the two identical, so the binary can never print a name the
//! contract file does not declare.

use serde_json::Value;

/// How long one run measures, seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the repo root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "myo_scaling",
        why: "Fig. 3/4 product: full myoglobin, focal platform, p=1,2,4,8; every cell decomposes differently, so only kernel speed helps and a physics memo must not",
    },
    Workload {
        name: "myo_platforms",
        why: "Fig. 1 factor space at p=8: identical physics per cell, only netsim/mpisim work differs, so a compute-once memo and engine slimming show here",
    },
    Workload {
        name: "svc_cold",
        why: "48-cell quick campaigns through JobService on a cold cache: 12-30 ms cells, so per-cell fixed costs (rank spawn, FFT plans, journal/cache/queue writes) dominate",
    },
    Workload {
        name: "svc_warm",
        why: "same campaigns against a warmed shared cache: every cell is a hit, so only cache reads, journal appends and queue events run, no MD at all",
    },
    Workload {
        name: "serve_paced",
        why: "live serve child under an open loop (a 24-cell campaign every second, 25 status polls/s): about half the polls land in a pump burst, where gateway-lock starvation lives",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "turnaround_p50_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "frac",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// An exact count that must repeat run to run (compared for
    /// identity by `compare`, never for speed).
    pub exact: bool,
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

/// Layer = crate. README.md lists which end-to-end metric each row
/// should move on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    rate("fftlib.fft3d_pairs_per_s", "1/s"),
    rate("fftlib.fft3d_gflops", "Gflop/s"),
    cost("fftlib.plan_build_us_paper", "us"),
    cost("fftlib.plan_build_us_quick", "us"),
    cost("mdsys.evaluate_ms", "ms"),
    rate("mdsys.nonbonded_pairs_per_s", "1/s"),
    rate("mdsys.bonded_terms_per_s", "1/s"),
    cost("mdsys.pme_recip_ms", "ms"),
    rate("mdsys.pme_spread_points_per_s", "1/s"),
    cost("mdsys.neighbor_build_ms", "ms"),
    cost("mdsys.pme_setup_ms", "ms"),
    cost("mdsys.quick_evaluate_ms", "ms"),
    cost("mdsys.system_build_s", "s"),
    exact("mdsys.pairs_per_step", "count"),
    exact("mdsys.spread_points_per_step", "count"),
    exact("mdsys.fft_flops_per_step", "flop"),
    cost("netsim.cluster_spawn_us_p8", "us"),
    cost("netsim.host_us_per_msg", "us"),
    cost("netsim.host_us_per_msg_64k", "us"),
    cost("netsim.transfer_model_ns_tcp", "ns"),
    cost("netsim.transfer_model_ns_score", "ns"),
    cost("netsim.transfer_model_ns_myrinet", "ns"),
    exact("netsim.msgs_per_cell_p8_mpi", "count"),
    exact("netsim.msgs_per_cell_p8_cmpi", "count"),
    exact("netsim.bytes_per_cell_p8_mpi", "B"),
    exact("netsim.bytes_per_cell_p8_cmpi", "B"),
    cost("mpisim.allreduce_us_p8_mpi", "us"),
    cost("mpisim.allreduce_us_p8_cmpi", "us"),
    cost("mpisim.alltoallv_us_p8", "us"),
    cost("mpisim.barrier_us_p8", "us"),
    cost("mpisim.ring_sync_us_p8", "us"),
    cost("core.cell_s_p1", "s"),
    cost("core.cell_s_p8", "s"),
    cost("core.classic_step_ms_p8", "ms"),
    cost("core.pme_step_ms_p8", "ms"),
    cost("core.replicated_work_ratio_p8", "ratio"),
    rate("core.sim_s_per_host_s", "ratio"),
    cost("workload.service_us_per_cell", "us"),
    cost("workload.journal_append_us", "us"),
    rate("workload.journal_load_lines_per_s", "1/s"),
    cost("workload.cache_put_us", "us"),
    cost("workload.cache_get_us", "us"),
    cost("workload.queue_cycle_us", "us"),
    cost("workload.service_self_frac", "frac"),
    cost("workload.figure_render_ms", "ms"),
    cost("vfs.atomic_publish_us", "us"),
    exact("vfs.fsyncs_per_cell_cold", "count"),
    exact("vfs.fsyncs_per_cell_warm", "count"),
    exact("vfs.dir_syncs_per_cell_cold", "count"),
    exact("vfs.dir_syncs_per_cell_warm", "count"),
    exact("vfs.bytes_written_per_cell_cold", "B"),
    exact("vfs.bytes_written_per_cell_warm", "B"),
    exact("vfs.ops_per_cell_cold", "count"),
    exact("vfs.ops_per_cell_warm", "count"),
    cost("pool.dispatch_us_per_task", "us"),
    cost("pool.steals_per_1k_tasks", "count"),
    rate("gateway.parse_req_per_s", "1/s"),
    rate("gateway.route_status_per_s", "1/s"),
    cost("gateway.submit_us", "us"),
    cost("gateway.pump_us_per_cell", "us"),
    rate("gateway.tcp_idle_req_per_s", "1/s"),
    cost("gateway.tcp_idle_p99_ms", "ms"),
    cost("gateway.busy_poll_p50_ms", "ms"),
    cost("gateway.busy_poll_p95_ms", "ms"),
    cost("gateway.submit_ack_p50_ms", "ms"),
    cost("gateway.gen_late_max_ms", "ms"),
    cost("gateway.shed_frac", "frac"),
    rate("serde_json.ser_measurement_per_s", "1/s"),
    rate("serde_json.de_measurement_per_s", "1/s"),
];

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let doc = obj(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(PATHS.iter().map(|p| s(p)).collect())),
        ("run_seconds", Value::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("a Value tree serializes");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet_and_are_unique() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn checked_in_benchmark_json_is_exactly_what_the_tables_generate() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cpc-benchmark spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
