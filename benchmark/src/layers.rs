//! The layer replay of a traced run: every layer (= crate) is measured
//! from outside, by timing calls into its public functions with the
//! sizes the workloads use. One span per call group, all under a
//! "layer replay" root; the per-layer metrics of the contract come
//! from here and only from here.

use crate::countfs::{CountingFs, FsCounts};
use crate::env::Env;
use crate::guard::{ServeChild, TempRoot};
use crate::http::request;
use crate::myo::{build_myoglobin, paper_model};
use crate::serve::{open_loop, Observed};
use crate::stats::{median, percentile};
use crate::svc::{
    exec_quick, key_of_point, quick_model, quick_protocol, run_campaign, settled, CAMPAIGN_CELLS,
    QUICK_STEPS,
};
use crate::trace::{SpanId, Tracer};
use cpc_charmm::{classic_energy_parallel, run_parallel_md, MdConfig, ParallelPme, RunReport};
use cpc_cluster::{
    run_cluster, ClusterConfig, MsgClass, NetworkKind, OpShape, SplitMix64, TransferCtx,
};
use cpc_fft::{Complex64, Fft3d};
use cpc_gateway::{demo_cells, read_request, Conn, DemoModel, Gateway, GatewayConfig, HttpLimits};
use cpc_md::bonded::bonded_energy_forces;
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{nonbonded_energy_forces, NonbondedOptions};
use cpc_md::pme::{compute_splines, spread_charges, Pme};
use cpc_md::{EnergyModel, Evaluator, System, Vec3};
use cpc_mpi::{Comm, Middleware};
use cpc_pool::Pool;
use cpc_vfs::SharedFs;
use cpc_workload::cache::CacheKey;
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::figures::{all_figures, Lab};
use cpc_workload::journal::Journal;
use cpc_workload::runner::{paper_pme_params, quick_pme_params, quick_system, PAPER_STEPS};
use cpc_workload::{full_factorial, Measurement, ResultCache, WorkQueue};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Neighbour-list skin of the sequential and the parallel engine.
const SKIN: f64 = 2.0;
/// Ranks of every "_p8" row.
const P8: usize = 8;

struct Replay<'a> {
    tracer: &'a Tracer,
    group: SpanId,
    out: Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Times one call inside a span of `layer`; returns its result and
    /// the seconds it took.
    fn timed<R>(&self, layer: &'static str, what: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.tracer.open(self.group, layer, what, Vec::new());
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.close(span);
        (out, secs)
    }

    /// Median seconds of `reps` calls, all inside one span.
    fn median_secs(
        &self,
        layer: &'static str,
        what: &str,
        reps: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let span = self
            .tracer
            .open(self.group, layer, what, vec![("reps", reps.to_string())]);
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        self.tracer.close(span);
        median(&times)
    }
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; the kernel reports them in 100 Hz ticks.
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

fn fftlib(r: &mut Replay<'_>) {
    let paper = paper_pme_params().grid;
    let quick = quick_pme_params().grid;
    let build_paper = r.median_secs("fftlib", "Fft3d::new 80x36x48", 5, || {
        black_box(Fft3d::new(black_box(paper)));
    });
    let build_quick = r.median_secs("fftlib", "Fft3d::new 16^3", 20, || {
        black_box(Fft3d::new(black_box(quick)));
    });
    r.put("fftlib.plan_build_us_paper", build_paper * 1e6);
    r.put("fftlib.plan_build_us_quick", build_quick * 1e6);

    let fft = Fft3d::new(paper);
    let mut rng = SplitMix64::new(1);
    let mut mesh: Vec<Complex64> = (0..paper.len())
        .map(|_| Complex64::new(rng.next_f64() - 0.5, 0.0))
        .collect();
    let pairs = 40usize;
    let (_, secs) = r.timed("fftlib", "forward+inverse 80x36x48", || {
        for _ in 0..pairs {
            fft.forward(&mut mesh);
            fft.inverse(&mut mesh);
        }
        black_box(&mesh);
    });
    r.put("fftlib.fft3d_pairs_per_s", pairs as f64 / secs);
    r.put(
        "fftlib.fft3d_gflops",
        2.0 * fft.flops() * pairs as f64 / secs / 1e9,
    );
}

fn mdsys(r: &mut Replay<'_>) -> (System, f64) {
    let (system, build_s) = r.timed("mdsys", "myoglobin build+minimise", build_myoglobin);
    r.put("mdsys.system_build_s", build_s);

    let model = paper_model();
    let EnergyModel::Pme(params) = model else {
        unreachable!("the paper protocol is PME")
    };
    let opts = NonbondedOptions::pme_direct(params.beta);
    let topo = &system.topology;
    let pbox = &system.pbox;
    let pos = &system.positions;

    let list_s = r.median_secs("mdsys", "NeighborList::build", 3, || {
        black_box(NeighborList::build(topo, pbox, pos, opts.cutoff, SKIN));
    });
    r.put("mdsys.neighbor_build_ms", list_s * 1e3);

    // Steady state: the first evaluation builds the list and the PME
    // solver, the timed ones reuse both.
    let mut evaluator = Evaluator::new(model);
    let mut forces = vec![Vec3::ZERO; system.n_atoms()];
    evaluator.evaluate(&system, &mut forces);
    let mut ops = None;
    let eval_s = r.median_secs("mdsys", "Evaluator::evaluate", 5, || {
        ops = Some(evaluator.evaluate(&system, &mut forces).1);
    });
    let ops = ops.expect("five evaluations ran");
    r.put("mdsys.evaluate_ms", eval_s * 1e3);
    r.put("mdsys.pairs_per_step", ops.pairs as f64);
    r.put("mdsys.spread_points_per_step", ops.spread_points as f64);
    r.put("mdsys.fft_flops_per_step", ops.fft_flops);

    let pairs = evaluator
        .pair_list()
        .expect("an evaluation refreshed the list")
        .to_vec();
    let nb_s = r.median_secs("mdsys", "nonbonded_energy_forces", 5, || {
        black_box(nonbonded_energy_forces(
            topo,
            pbox,
            pos,
            &pairs,
            &opts,
            &mut forces,
        ));
    });
    r.put("mdsys.nonbonded_pairs_per_s", pairs.len() as f64 / nb_s);

    let (_, terms) = bonded_energy_forces(topo, pbox, pos, &mut forces);
    let bonded_s = r.median_secs("mdsys", "bonded_energy_forces x20", 5, || {
        for _ in 0..20 {
            black_box(bonded_energy_forces(topo, pbox, pos, &mut forces));
        }
    });
    r.put("mdsys.bonded_terms_per_s", 20.0 * terms as f64 / bonded_s);

    let pme_new_s = r.median_secs("mdsys", "Pme::new", 3, || {
        black_box(Pme::new(params, pbox));
    });
    r.put("mdsys.pme_setup_ms", pme_new_s * 1e3);
    let mut pme = Pme::new(params, pbox);
    let recip_s = r.median_secs("mdsys", "Pme::energy_forces", 5, || {
        black_box(pme.energy_forces(topo, pbox, pos, &mut forces));
    });
    r.put("mdsys.pme_recip_ms", recip_s * 1e3);

    let mut mesh = vec![Complex64::ZERO; params.grid.len()];
    let mut points = 0usize;
    let spread_s = r.median_secs("mdsys", "compute_splines+spread_charges", 5, || {
        let splines = compute_splines(pbox, pos, params.grid, params.order);
        points = spread_charges(topo, &splines, params.grid, params.order, &mut mesh);
        black_box(&mesh);
    });
    r.put("mdsys.pme_spread_points_per_s", points as f64 / spread_s);

    let quick = quick_system();
    let mut quick_eval = Evaluator::new(quick_model());
    let mut quick_forces = vec![Vec3::ZERO; quick.n_atoms()];
    quick_eval.evaluate(&quick, &mut quick_forces);
    let quick_s = r.median_secs("mdsys", "Evaluator::evaluate quick", 20, || {
        black_box(quick_eval.evaluate(&quick, &mut quick_forces));
    });
    r.put("mdsys.quick_evaluate_ms", quick_s * 1e3);

    (system, eval_s)
}

fn p8() -> ClusterConfig {
    ClusterConfig::uni(P8, NetworkKind::TcpGigE)
}

/// Runs `body` on 8 ranks and returns the slowest rank's seconds per
/// iteration: a collective is over when its last rank leaves it.
fn slowest_rank_secs(iters: usize, body: impl Fn(&mut cpc_cluster::RankCtx, usize) + Sync) -> f64 {
    let outcomes = run_cluster(p8(), |ctx| {
        let t = Instant::now();
        body(ctx, iters);
        t.elapsed().as_secs_f64()
    });
    outcomes.iter().map(|o| o.result).fold(0.0, f64::max) / iters as f64
}

fn netsim(r: &mut Replay<'_>) {
    let spawn_s = r.median_secs("netsim", "run_cluster empty body p=8", 20, || {
        black_box(run_cluster(p8(), |_| ()));
    });
    r.put("netsim.cluster_spawn_us_p8", spawn_s * 1e6);

    // 10 k ring messages in all: each of the 8 ranks sends 1250 to its
    // right neighbour and receives 1250 from its left one.
    let ring = |words: usize| {
        slowest_rank_secs(10_000 / P8, |ctx, iters| {
            let (right, left) = ((ctx.rank() + 1) % P8, (ctx.rank() + P8 - 1) % P8);
            for i in 0..iters as u64 {
                ctx.send(
                    right,
                    i,
                    vec![0.0; words],
                    MsgClass::Payload,
                    OpShape::p2p(),
                );
                black_box(ctx.recv(left, i));
            }
        }) / P8 as f64
    };
    let (small, _) = r.timed("netsim", "ring 8 B x 10k", || ring(1));
    let (large, _) = r.timed("netsim", "ring 64 KiB x 10k", || ring(8192));
    r.put("netsim.host_us_per_msg", small * 1e6);
    r.put("netsim.host_us_per_msg_64k", large * 1e6);

    let ctx = TransferCtx {
        shape: OpShape::p2p(),
        src_ranks_per_node: 1,
        dst_ranks_per_node: 1,
        same_node: false,
    };
    for (name, kind) in [
        ("netsim.transfer_model_ns_tcp", NetworkKind::TcpGigE),
        ("netsim.transfer_model_ns_score", NetworkKind::ScoreGigE),
        ("netsim.transfer_model_ns_myrinet", NetworkKind::MyrinetGm),
    ] {
        let params = kind.params();
        let calls = 200_000usize;
        let mut rng = SplitMix64::new(2002);
        let (_, secs) = r.timed("netsim", "NetworkParams::transfer x200k", || {
            let mut acc = 0.0;
            for i in 0..calls {
                acc += params
                    .transfer(black_box(64 + (i & 0xfff)), &ctx, &mut rng)
                    .wire;
            }
            black_box(acc);
        });
        r.put(name, secs / calls as f64 * 1e9);
    }
}

fn mpisim(r: &mut Replay<'_>) {
    // The force vector of myoglobin: 3 x 3552 doubles.
    let allreduce = |mw: Middleware| {
        slowest_rank_secs(20, move |ctx, iters| {
            let mut comm = Comm::new(ctx, mw);
            let mut v = vec![1.0; 10_656];
            for _ in 0..iters {
                comm.allreduce_sum(&mut v);
            }
            black_box(v);
        })
    };
    let (mpi, _) = r.timed("mpisim", "allreduce_sum 10656 f64 MPI", || {
        allreduce(Middleware::Mpi)
    });
    let (cmpi, _) = r.timed("mpisim", "allreduce_sum 10656 f64 CMPI", || {
        allreduce(Middleware::Cmpi)
    });
    r.put("mpisim.allreduce_us_p8_mpi", mpi * 1e6);
    r.put("mpisim.allreduce_us_p8_cmpi", cmpi * 1e6);

    // One PME transpose: the 80x36x48 complex mesh cut into 8 x 8
    // blocks.
    let block = paper_pme_params().grid.len() * 2 / (P8 * P8);
    let (a2a, _) = r.timed("mpisim", "alltoallv transpose blocks", || {
        slowest_rank_secs(20, move |ctx, iters| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            for _ in 0..iters {
                black_box(comm.alltoallv(vec![vec![0.5; block]; P8]));
            }
        })
    });
    r.put("mpisim.alltoallv_us_p8", a2a * 1e6);

    let (barrier, _) = r.timed("mpisim", "barrier MPI x200", || {
        slowest_rank_secs(200, |ctx, iters| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            for _ in 0..iters {
                comm.barrier();
            }
        })
    });
    let (ring, _) = r.timed("mpisim", "ring_sync CMPI x200", || {
        slowest_rank_secs(200, |ctx, iters| {
            let mut comm = Comm::new(ctx, Middleware::Cmpi);
            for _ in 0..iters {
                comm.ring_sync();
            }
        })
    });
    r.put("mpisim.barrier_us_p8", barrier * 1e6);
    r.put("mpisim.ring_sync_us_p8", ring * 1e6);
}

fn cell(system: &System, procs: usize, middleware: Middleware) -> RunReport {
    let cfg = MdConfig {
        steps: PAPER_STEPS,
        ..MdConfig::paper_protocol(
            paper_model(),
            middleware,
            ClusterConfig::uni(procs, NetworkKind::TcpGigE),
        )
    };
    run_parallel_md(system, &cfg)
}

fn traffic(report: &RunReport) -> (f64, f64) {
    (
        report.per_rank.iter().map(|s| s.msgs_sent).sum::<u64>() as f64,
        report.per_rank.iter().map(|s| s.bytes_sent).sum::<u64>() as f64,
    )
}

fn core(r: &mut Replay<'_>, system: &System, evaluate_s: f64) {
    let (_, p1_s) = r.timed("core", "run_parallel_md focal p=1", || {
        black_box(cell(system, 1, Middleware::Mpi));
    });
    r.put("core.cell_s_p1", p1_s);

    let cpu_before = process_cpu_seconds();
    let (mpi, p8_s) = r.timed("core", "run_parallel_md focal p=8", || {
        cell(system, P8, Middleware::Mpi)
    });
    let cpu_s = process_cpu_seconds() - cpu_before;
    r.put("core.cell_s_p8", p8_s);
    // CPU the p = 8 cell burned over what ten sequential evaluations
    // cost: replicated list builds, meshes and collectives.
    r.put(
        "core.replicated_work_ratio_p8",
        cpu_s / (PAPER_STEPS as f64 * evaluate_s),
    );
    r.put("core.sim_s_per_host_s", mpi.wall_time / p8_s);
    let (msgs, bytes) = traffic(&mpi);
    r.put("netsim.msgs_per_cell_p8_mpi", msgs);
    r.put("netsim.bytes_per_cell_p8_mpi", bytes);
    let (cmpi, _) = r.timed("core", "run_parallel_md CMPI p=8", || {
        cell(system, P8, Middleware::Cmpi)
    });
    let (msgs, bytes) = traffic(&cmpi);
    r.put("netsim.msgs_per_cell_p8_cmpi", msgs);
    r.put("netsim.bytes_per_cell_p8_cmpi", bytes);

    // One energy step taken apart inside a harness-owned cluster body:
    // rank 0 times the classic and the PME half of three steps.
    let EnergyModel::Pme(params) = paper_model() else {
        unreachable!("the paper protocol is PME")
    };
    let opts = NonbondedOptions::pme_direct(params.beta);
    let span = r
        .tracer
        .open(r.group, "core", "classic+pme step x3 p=8", Vec::new());
    let outcomes = run_cluster(p8(), |ctx| {
        let cost = ctx.config().cost;
        let mut comm = Comm::new(ctx, Middleware::Mpi);
        let list = NeighborList::build(
            &system.topology,
            &system.pbox,
            &system.positions,
            opts.cutoff,
            SKIN,
        );
        let ppme = ParallelPme::new(params, P8);
        let (mut classic, mut pme) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            comm.barrier();
            let t = Instant::now();
            black_box(classic_energy_parallel(
                &mut comm,
                system,
                &list.pairs,
                &opts,
                &cost,
            ));
            classic.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(ppme.energy_forces(&mut comm, system, &cost));
            pme.push(t.elapsed().as_secs_f64());
        }
        (median(&classic), median(&pme))
    });
    r.tracer.close(span);
    let (classic_s, pme_s) = outcomes[0].result;
    r.put("core.classic_step_ms_p8", classic_s * 1e3);
    r.put("core.pme_step_ms_p8", pme_s * 1e3);
}

/// The four exact `vfs.*_per_cell` rows of one campaign.
const VFS_COLD: [&str; 4] = [
    "vfs.fsyncs_per_cell_cold",
    "vfs.dir_syncs_per_cell_cold",
    "vfs.bytes_written_per_cell_cold",
    "vfs.ops_per_cell_cold",
];
const VFS_WARM: [&str; 4] = [
    "vfs.fsyncs_per_cell_warm",
    "vfs.dir_syncs_per_cell_warm",
    "vfs.bytes_written_per_cell_warm",
    "vfs.ops_per_cell_warm",
];

fn per_cell(names: [&'static str; 4], counts: FsCounts, r: &mut Replay<'_>) {
    let values = [
        counts.file_syncs,
        counts.dir_syncs,
        counts.bytes_written,
        counts.ops(),
    ];
    for (name, value) in names.into_iter().zip(values) {
        r.put(name, value as f64 / CAMPAIGN_CELLS as f64);
    }
}

fn workload_and_vfs(r: &mut Replay<'_>, tmp: &Path) -> io::Result<()> {
    let root = TempRoot::new(tmp, "replay-workload")?;
    let system = quick_system();
    let tasks = full_factorial(&crate::common::CAMPAIGN_COUNTS);

    let campaign =
        |fs: SharedFs,
         name: &str,
         cache: &Path,
         exec: &mut dyn FnMut(&ExperimentPoint) -> (Measurement, f64)| {
            let done = run_campaign(fs, &root.path().join(name), Some(cache), &tasks, exec)
                .map_err(io::Error::other)?;
            if settled(&done.outcome) {
                Ok(done)
            } else {
                Err(io::Error::other(format!(
                    "replay campaign {name} did not settle: {:?}",
                    done.outcome
                )))
            }
        };

    // Cold, then warm, on the counting filesystem.
    let cache = root.path().join("cache");
    let fs = CountingFs::new();
    let span = r
        .tracer
        .open(r.group, "workload", "cold campaign", Vec::new());
    let mut exec_s = 0.0;
    let cold = campaign(fs.clone(), "cold", &cache, &mut |p| {
        let t = Instant::now();
        let out = exec_quick(&system, p);
        exec_s += t.elapsed().as_secs_f64();
        out
    })?;
    r.tracer.close(span);
    per_cell(VFS_COLD, fs.counts(), r);
    r.put(
        "workload.service_self_frac",
        (cold.secs - exec_s) / cold.secs,
    );
    let results = cold.service.results();

    let fs = CountingFs::new();
    let span = r
        .tracer
        .open(r.group, "workload", "warm campaign", Vec::new());
    campaign(fs.clone(), "warm", &cache, &mut |p| exec_quick(&system, p))?;
    r.tracer.close(span);
    per_cell(VFS_WARM, fs.counts(), r);

    // The service alone: `exec` hands back the precomputed result.
    let mut stub_times = Vec::new();
    let span = r.tracer.open(
        r.group,
        "workload",
        "JobService::run stub exec x3",
        Vec::new(),
    );
    for i in 0..3 {
        let name = format!("stub-{i}");
        let own_cache = root.path().join(&name).join("cache");
        let done = campaign(cpc_vfs::real_fs(), &name, &own_cache, &mut |p| {
            let m = results[&key_of_point(p)].clone();
            let cost = m.energy_time();
            (m, cost)
        })?;
        stub_times.push(done.secs);
    }
    r.tracer.close(span);
    r.put(
        "workload.service_us_per_cell",
        median(&stub_times) / CAMPAIGN_CELLS as f64 * 1e6,
    );

    let sample = results[&key_of_point(&tasks[0])].clone();

    // Journal: fsynced appends, then a 10 k-line load.
    let journal_path = root.path().join("journal/append.jsonl");
    let mut journal = Journal::<Measurement>::create(&journal_path)?;
    let mut failed = None;
    let append_s = r.median_secs("workload", "Journal::append", 100, || {
        if let Err(e) = journal.append(&sample) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    r.put("workload.journal_append_us", append_s * 1e6);
    let text = std::fs::read_to_string(&journal_path)?;
    let line = text.lines().next().unwrap_or_default();
    let big = root.path().join("journal/big.jsonl");
    let lines = 10_000usize;
    std::fs::write(&big, format!("{line}\n").repeat(lines))?;
    let (loaded, load_s) = r.timed("workload", "Journal::load 10k lines", || {
        Journal::<Measurement>::load(&big)
    });
    let loaded = loaded?;
    if loaded.entries.len() != lines {
        return Err(io::Error::other("the 10 k-line journal did not load whole"));
    }
    r.put("workload.journal_load_lines_per_s", lines as f64 / load_s);

    // Cache: one put and one get per campaign cell.
    let mut cache = ResultCache::open(root.path().join("bare-cache"))?;
    let keys: Vec<CacheKey> = tasks
        .iter()
        .map(|t| CacheKey::of(t, &quick_protocol()))
        .collect::<io::Result<_>>()?;
    let span = r
        .tracer
        .open(r.group, "workload", "ResultCache put+get x48", Vec::new());
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for key in &keys {
        let t = Instant::now();
        cache.put(key, &sample)?;
        puts.push(t.elapsed().as_secs_f64());
    }
    for key in &keys {
        let t = Instant::now();
        let hit: Option<Measurement> = cache.get(key);
        gets.push(t.elapsed().as_secs_f64());
        if hit.is_none() {
            return Err(io::Error::other(
                "a cache entry just written did not read back",
            ));
        }
    }
    r.tracer.close(span);
    r.put("workload.cache_put_us", median(&puts) * 1e6);
    r.put("workload.cache_get_us", median(&gets) * 1e6);

    // Queue: enqueue + lease + complete, the three events of a cell.
    let mut queue = WorkQueue::create(root.path().join("queue"), 4)?;
    let span = r
        .tracer
        .open(r.group, "workload", "WorkQueue cycle x48", Vec::new());
    let mut cycles = Vec::new();
    for task in &tasks {
        let key = key_of_point(task);
        let t = Instant::now();
        queue.enqueue(&key)?;
        let lease = queue
            .lease_key(&key, 0)?
            .ok_or_else(|| io::Error::other("a fresh task did not lease"))?;
        queue
            .complete(&lease.key, lease.lease, 0.0)
            .map_err(|e| io::Error::other(format!("complete failed: {e:?}")))?;
        cycles.push(t.elapsed().as_secs_f64());
    }
    r.tracer.close(span);
    r.put("workload.queue_cycle_us", median(&cycles) * 1e6);

    // Figures: every figure of the paper from a lab that already holds
    // every cell.
    let mut lab = Lab::custom(&system, QUICK_STEPS, quick_model());
    let (_, _) = r.timed("workload", "all_figures cold lab", || {
        black_box(all_figures(&mut lab));
    });
    let render_s = r.median_secs("workload", "all_figures warm lab", 5, || {
        black_box(all_figures(&mut lab));
    });
    r.put("workload.figure_render_ms", render_s * 1e3);

    // vfs: the one atomic-write helper, 512 bytes on the real disk.
    let fs = cpc_vfs::real_fs();
    let target = root.path().join("publish/meta.json");
    std::fs::create_dir_all(root.path().join("publish"))?;
    let payload = [b'x'; 512];
    let mut failed = None;
    let publish_s = r.median_secs("vfs", "atomic_publish 512 B", 50, || {
        if let Err(e) = cpc_vfs::atomic_publish(fs.as_ref(), &target, &payload) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    r.put("vfs.atomic_publish_us", publish_s * 1e6);

    // serde_json: every journal line and cache entry rides on it.
    let n = 20_000usize;
    let (json, ser_s) = r.timed("serde_json", "to_string Measurement x20k", || {
        let mut last = String::new();
        for _ in 0..n {
            last = serde_json::to_string(black_box(&sample)).expect("a measurement serializes");
        }
        last
    });
    let (_, de_s) = r.timed("serde_json", "from_str Measurement x20k", || {
        for _ in 0..n {
            let m: Measurement =
                serde_json::from_str(black_box(&json)).expect("its own output parses");
            black_box(m);
        }
    });
    r.put("serde_json.ser_measurement_per_s", n as f64 / ser_s);
    r.put("serde_json.de_measurement_per_s", n as f64 / de_s);
    Ok(())
}

fn pool(r: &mut Replay<'_>) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::new(threads);
    let items: Vec<u64> = (0..10_000).collect();
    let secs = r.median_secs("pool", "par_map_indexed 10k trivial", 5, || {
        black_box(pool.par_map_indexed(&items, |i, x| x + i as u64));
    });
    let stats = pool.stats();
    r.put("pool.dispatch_us_per_task", secs / items.len() as f64 * 1e6);
    r.put(
        "pool.steals_per_1k_tasks",
        stats.steals as f64 * 1000.0 / stats.tasks.max(1) as f64,
    );
}

/// A request already in memory, for timing the parser and the router
/// without a socket.
struct MemConn {
    input: Vec<u8>,
    at: usize,
    output: Vec<u8>,
}

impl MemConn {
    fn new(input: &[u8]) -> Self {
        MemConn {
            input: input.to_vec(),
            at: 0,
            output: Vec::new(),
        }
    }
}

impl Conn for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.at);
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.output.extend_from_slice(buf);
        Ok(())
    }

    fn elapsed(&self) -> f64 {
        0.0
    }
}

fn gateway_in_process(r: &mut Replay<'_>, tmp: &Path) -> io::Result<()> {
    let root = TempRoot::new(tmp, "replay-gateway")?;
    let mut gw = Gateway::open(GatewayConfig::new(root.path(), "replay"), DemoModel)?;

    let cells = 48u64;
    let campaigns = 20usize;
    let mut submits = Vec::new();
    let span = r
        .tracer
        .open(r.group, "gateway", "Gateway::handle submit x20", Vec::new());
    for i in 0..campaigns {
        let body = format!("{{\"tenant\":\"t{i}\",\"cells\":{}}}", demo_cells(cells));
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut conn = MemConn::new(raw.as_bytes());
        let t = Instant::now();
        gw.handle(&mut conn);
        submits.push(t.elapsed().as_secs_f64());
        if !conn.output.starts_with(b"HTTP/1.1 201") {
            return Err(io::Error::other("a replay submission was not admitted"));
        }
    }
    r.tracer.close(span);
    r.put("gateway.submit_us", median(&submits) * 1e6);

    let id = gw
        .campaign_ids()
        .into_iter()
        .next()
        .ok_or_else(|| io::Error::other("no campaign registered"))?;
    let raw = format!("GET /campaigns/{id} HTTP/1.1\r\nHost: x\r\n\r\n");
    let limits = HttpLimits::default();
    let n = 50_000usize;
    let (_, parse_s) = r.timed("gateway", "read_request x50k", || {
        for _ in 0..n {
            let mut conn = MemConn::new(raw.as_bytes());
            black_box(read_request(&mut conn, &limits).is_ok());
        }
    });
    r.put("gateway.parse_req_per_s", n as f64 / parse_s);
    let n = 20_000usize;
    let (_, route_s) = r.timed("gateway", "Gateway::handle status x20k", || {
        for _ in 0..n {
            let mut conn = MemConn::new(raw.as_bytes());
            gw.handle(&mut conn);
            black_box(&conn.output);
        }
    });
    r.put("gateway.route_status_per_s", n as f64 / route_s);

    let (_, pump_s) = r.timed("gateway", "Gateway::pump to drain", || {
        while !gw.all_done() {
            if gw.pump(64).granted == 0 {
                break;
            }
        }
    });
    if !gw.all_done() {
        return Err(io::Error::other("the replay gateway did not drain"));
    }
    r.put(
        "gateway.pump_us_per_cell",
        pump_s / (cells as f64 * campaigns as f64) * 1e6,
    );
    Ok(())
}

fn gateway_over_tcp(
    r: &mut Replay<'_>,
    env: &Env,
    binary: &Path,
    observed: Option<&Observed>,
) -> Result<(), String> {
    let root = TempRoot::new(&env.tmp(), "replay-serve").map_err(|e| e.to_string())?;
    let child = ServeChild::spawn(binary, root.path())
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;

    let n = 2000usize;
    let mut lat = Vec::with_capacity(n);
    let (result, idle_s) = r.timed("gateway", "GET /healthz x2000 idle", || {
        for _ in 0..n {
            let t = Instant::now();
            let reply = request(child.addr, "GET", "/healthz", None, Duration::from_secs(5))
                .map_err(|e| format!("idle /healthz failed: {e}"))?;
            if reply.status != 200 {
                return Err(format!("idle /healthz answered {}", reply.status));
            }
            lat.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    });
    result?;
    r.put("gateway.tcp_idle_req_per_s", n as f64 / idle_s);
    r.put("gateway.tcp_idle_p99_ms", percentile(&lat, 99.0) * 1e3);

    // The busy rows come from the workload's own open loop when this
    // is the traced run of `serve_paced`, else from a short one here.
    let probe;
    let obs = match observed {
        Some(obs) => obs,
        None => {
            let span = r
                .tracer
                .open(r.group, "gateway", "open loop 3 s", Vec::new());
            probe = open_loop(child.addr, &mut SplitMix64::new(2002), 3.0, r.tracer, span);
            r.tracer.close(span);
            &probe
        }
    };
    if obs.busy_polls.is_empty() || obs.submit_acks.is_empty() {
        return Err("the open loop saw no busy poll".to_string());
    }
    let busy_ms: Vec<f64> = obs.busy_polls.iter().map(|s| s * 1e3).collect();
    let acks_ms: Vec<f64> = obs.submit_acks.iter().map(|a| a.0 * 1e3).collect();
    r.put("gateway.busy_poll_p50_ms", median(&busy_ms));
    r.put("gateway.busy_poll_p95_ms", percentile(&busy_ms, 95.0));
    r.put("gateway.submit_ack_p50_ms", median(&acks_ms));
    r.put("gateway.gen_late_max_ms", obs.gen_late_max_s * 1e3);
    r.put(
        "gateway.shed_frac",
        obs.shed as f64 / obs.requests.max(1) as f64,
    );
    Ok(())
}

/// Runs the whole replay and returns `(metric name, value)` rows.
pub fn replay(
    env: &Env,
    serve_binary: &Path,
    tracer: &Tracer,
    observed: Option<&Observed>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let group = tracer.open(SpanId::NONE, "harness", "layer replay", Vec::new());
    let mut r = Replay {
        tracer,
        group,
        out: Vec::new(),
    };
    fftlib(&mut r);
    let (system, evaluate_s) = mdsys(&mut r);
    netsim(&mut r);
    mpisim(&mut r);
    core(&mut r, &system, evaluate_s);
    drop(system);
    workload_and_vfs(&mut r, &env.tmp()).map_err(|e| format!("workload replay failed: {e}"))?;
    pool(&mut r);
    gateway_in_process(&mut r, &env.tmp()).map_err(|e| format!("gateway replay failed: {e}"))?;
    gateway_over_tcp(&mut r, env, serve_binary, observed)?;
    tracer.close(group);
    Ok(r.out)
}
