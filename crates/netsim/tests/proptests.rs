//! Property-based tests of the virtual cluster: model monotonicity and
//! determinism over arbitrary parameters.

use cpc_cluster::{
    replay, run_cluster_faulty, run_cluster_recorded, ClusterConfig, FaultPlan, MsgClass,
    NetworkKind, OpShape, Phase, Script, SimError, SplitMix64, TransferCtx,
};
use proptest::prelude::*;

/// One step of a rank's script in the stall-detector property.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Send { dst: usize, tag: u64 },
    Recv { src: usize, tag: u64 },
}

/// Serial reference for the engine's blocking semantics: runs each
/// rank's script until it blocks or ends, lowest rank first, until no
/// rank can move. `Err` names the lowest rank left blocked and the tag
/// it waits on.
fn run_to_block(scripts: &[Vec<Op>]) -> Result<(), (usize, u64)> {
    let mut pc = vec![0; scripts.len()];
    let mut inbox = vec![Vec::new(); scripts.len()];
    let mut moved = true;
    while std::mem::take(&mut moved) {
        for (rank, script) in scripts.iter().enumerate() {
            while let Some(&op) = script.get(pc[rank]) {
                match op {
                    Op::Send { dst, tag } => inbox[dst].push((rank, tag)),
                    Op::Recv { src, tag } => {
                        match inbox[rank].iter().position(|&m| m == (src, tag)) {
                            Some(at) => drop(inbox[rank].remove(at)),
                            None => break,
                        }
                    }
                }
                pc[rank] += 1;
                moved = true;
            }
        }
    }
    for (rank, script) in scripts.iter().enumerate() {
        if let Some(&Op::Recv { tag, .. }) = script.get(pc[rank]) {
            return Err((rank, tag));
        }
    }
    Ok(())
}

fn ctx(shape: OpShape) -> TransferCtx {
    TransferCtx {
        shape,
        src_ranks_per_node: 1,
        dst_ranks_per_node: 1,
        same_node: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_time_monotone_in_bytes(
        bytes in 1usize..2_000_000,
        extra in 1usize..1_000_000,
        counter in 0u64..500,
        kind_idx in 0usize..NetworkKind::ALL.len(),
    ) {
        // Same RNG stream for both sizes: deterministic comparison.
        let p = NetworkKind::ALL[kind_idx].params();
        let c = ctx(OpShape::p2p());
        let mut r1 = SplitMix64::for_message(1, 0, 1, counter);
        let mut r2 = SplitMix64::for_message(1, 0, 1, counter);
        let small = p.transfer(bytes, &c, &mut r1).wire;
        let big = p.transfer(bytes + extra, &c, &mut r2).wire;
        prop_assert!(big >= small, "{small} vs {big}");
    }

    #[test]
    fn effective_bandwidth_monotone_in_flows(
        flows in 1usize..16,
        kind_idx in 0usize..NetworkKind::ALL.len(),
    ) {
        let p = NetworkKind::ALL[kind_idx].params();
        let a = p.effective_bandwidth(flows, false);
        let b = p.effective_bandwidth(flows + 1, false);
        prop_assert!(b <= a + 1e-9);
        prop_assert!(b > 0.0);
    }

    #[test]
    fn transfer_time_is_always_positive_and_finite(
        bytes in 1usize..10_000_000,
        endpoint in 1usize..16,
        participants in 2usize..17,
        counter in 0u64..1000,
        kind_idx in 0usize..NetworkKind::ALL.len(),
    ) {
        let p = NetworkKind::ALL[kind_idx].params();
        let c = ctx(OpShape::new(endpoint, participants));
        let mut rng = SplitMix64::for_message(7, 0, 1, counter);
        let t = p.transfer(bytes, &c, &mut rng);
        prop_assert!(t.wire > 0.0 && t.wire.is_finite());
        prop_assert!(t.send_overhead >= 0.0 && t.recv_overhead >= 0.0);
    }

    #[test]
    fn rank_node_mapping_consistent(ranks in 1usize..33, dual in proptest::bool::ANY) {
        let cfg = if dual {
            ClusterConfig::dual(ranks, NetworkKind::TcpGigE)
        } else {
            ClusterConfig::uni(ranks, NetworkKind::TcpGigE)
        };
        cfg.validate().unwrap();
        let mut per_node = std::collections::HashMap::new();
        for r in 0..ranks {
            *per_node.entry(cfg.node_of(r)).or_insert(0usize) += 1;
        }
        prop_assert_eq!(per_node.len(), cfg.nodes());
        for (&node, &count) in &per_node {
            prop_assert!(count <= cfg.cpus_per_node);
            prop_assert!(node < cfg.nodes());
        }
        // compute_scale reflects sharing.
        for r in 0..ranks {
            let scale = cfg.compute_scale(r);
            if cfg.ranks_on_node_of(r) > 1 {
                prop_assert!(scale > 1.0);
            } else {
                prop_assert!((scale - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cost_model_scaling_is_linear(speedup in 0.1f64..8.0) {
        let base = cpc_cluster::PIII_1GHZ;
        let scaled = base.scaled(speedup);
        prop_assert!((scaled.pair_eval * speedup - base.pair_eval).abs() < 1e-15);
        prop_assert!((scaled.fft_flop * speedup - base.fft_flop).abs() < 1e-15);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cluster_runs_are_deterministic_for_any_config(
        ranks in 1usize..9,
        seed in 0u64..100,
        kind_idx in 0usize..NetworkKind::ALL.len(),
        dual in proptest::bool::ANY,
    ) {
        let mut cfg = if dual {
            ClusterConfig::dual(ranks, NetworkKind::ALL[kind_idx])
        } else {
            ClusterConfig::uni(ranks, NetworkKind::ALL[kind_idx])
        };
        cfg.seed = seed;
        let run = || {
            cpc_cluster::run_cluster(cfg, |ctx| {
                ctx.set_phase(Phase::Classic);
                ctx.charge_compute(1e-3 * (ctx.rank() + 1) as f64);
                let p = ctx.size();
                if p > 1 {
                    let next = (ctx.rank() + 1) % p;
                    let prev = (ctx.rank() + p - 1) % p;
                    ctx.send(next, 1, vec![ctx.rank() as f64; 100], MsgClass::Payload,
                             OpShape::new(1, p));
                    ctx.recv(prev, 1);
                }
                ctx.now()
            })
            .iter()
            .map(|o| o.finish_time)
            .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stall detector is exact: over arbitrary send/receive
    /// scripts the threaded engine completes iff the serial reference
    /// does, and otherwise names the same rank and tag epoch.
    #[test]
    fn engine_stalls_exactly_when_the_serial_reference_blocks(
        p in 2usize..=6,
        events in proptest::collection::vec((0usize..6, 0usize..5, 0u64..6), 0..14),
        dropped in proptest::collection::vec(0usize..64, 0..3),
        reversed in proptest::collection::vec(proptest::bool::ANY, 6..7),
    ) {
        // Matched pairs in one global order always complete (sends are
        // eager); dropping ops and reversing whole scripts then breaks
        // some of them: orphaned receives, and cycles of receives.
        let mut scripts = vec![Vec::new(); p];
        for (a, b, t) in events {
            let (src, tag) = (a % p, (t / 2) << 8 | (t % 2));
            let dst = (src + 1 + b % (p - 1)) % p;
            scripts[src].push(Op::Send { dst, tag });
            scripts[dst].push(Op::Recv { src, tag });
        }
        for d in dropped {
            let script = &mut scripts[d % p];
            if !script.is_empty() {
                script.remove(d % script.len());
            }
        }
        for (script, rev) in scripts.iter_mut().zip(reversed) {
            if rev {
                script.reverse();
            }
        }

        let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            for &op in &scripts[ctx.rank()] {
                match op {
                    Op::Send { dst, tag } => {
                        ctx.send(dst, tag, vec![1.0], MsgClass::Payload, OpShape::p2p());
                    }
                    // Both blocking paths share the detector.
                    Op::Recv { src, tag } if tag % 2 == 0 => drop(ctx.recv(src, tag)),
                    Op::Recv { src, tag } => drop(ctx.recv_result(src, tag)),
                }
            }
        });
        match run_to_block(&scripts) {
            Ok(()) => prop_assert!(result.is_ok(), "reference completes, engine: {result:?}"),
            Err((rank, tag)) => prop_assert_eq!(
                result.err(),
                Some(SimError::Stalled { rank, step: tag >> 8 })
            ),
        }
    }
}

/// Plays engine scripts on the threaded engine, payloads at their
/// recorded lengths.
fn play_threaded(cfg: ClusterConfig, scripts: &[Script]) -> Result<Vec<u64>, SimError> {
    let outcomes = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
        for &op in &scripts[ctx.rank()] {
            match op {
                cpc_cluster::Op::Phase(phase) => ctx.set_phase(phase),
                cpc_cluster::Op::Compute(seconds) => ctx.charge_compute(seconds),
                cpc_cluster::Op::Send {
                    dst,
                    tag,
                    len,
                    class,
                    shape,
                } => {
                    ctx.send(dst, tag, vec![0.0; len], class, shape);
                }
                cpc_cluster::Op::Recv { src, tag } => drop(ctx.recv(src, tag)),
            }
        }
    })?;
    Ok(outcomes.iter().map(|o| o.finish_time.to_bits()).collect())
}

/// The serial reference's view of an engine script: its sends and
/// receives.
fn messages(script: &Script) -> Vec<Op> {
    script
        .iter()
        .filter_map(|op| match *op {
            cpc_cluster::Op::Send { dst, tag, .. } => Some(Op::Send { dst, tag }),
            cpc_cluster::Op::Recv { src, tag } => Some(Op::Recv { src, tag }),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stall parity of the one-thread replay. Scripts recorded from
    /// matched send/receive pairs replay to the threaded engine's exact
    /// clocks. With the last send of one sender's script dropped, the
    /// replay, the threaded engine playing the same scripts, and the
    /// serial reference all agree: each completes, or each names the
    /// same stalled rank and epoch.
    #[test]
    fn a_replay_stalls_exactly_where_the_threaded_engine_does(
        p in 2usize..=6,
        events in proptest::collection::vec((0usize..6, 0usize..5, 0u64..6, 0usize..300), 1..14),
        sender in 0usize..6,
    ) {
        let mut plan = vec![Vec::new(); p];
        for (a, b, t, len) in events {
            let (src, tag) = (a % p, (t / 2) << 8 | (t % 2));
            let dst = (src + 1 + b % (p - 1)) % p;
            plan[src].push((true, dst, tag, len));
            plan[dst].push((false, src, tag, len));
        }
        let cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
        let (live, mut scripts) = run_cluster_recorded(cfg, |ctx| {
            ctx.set_phase(Phase::Pme);
            for &(send, peer, tag, len) in &plan[ctx.rank()] {
                ctx.charge_compute(1e-6 * len as f64);
                if send {
                    ctx.send(peer, tag, vec![1.0; len], MsgClass::Payload, OpShape::new(1, p));
                } else {
                    ctx.recv(peer, tag);
                }
            }
        });
        let clocks: Vec<u64> = live.iter().map(|o| o.finish_time.to_bits()).collect();
        let replayed = replay(cfg, &scripts).expect("recorded scripts complete");
        let replayed: Vec<u64> = replayed.iter().map(|o| o.finish_time.to_bits()).collect();
        prop_assert_eq!(&replayed, &clocks);

        let senders: Vec<usize> = (0..p).filter(|&r| plan[r].iter().any(|e| e.0)).collect();
        let sender = senders[sender % senders.len()];
        let last = scripts[sender]
            .iter()
            .rposition(|op| matches!(op, cpc_cluster::Op::Send { .. }))
            .expect("a sender sends");
        scripts[sender].remove(last);
        let threaded = play_threaded(cfg, &scripts);
        let replayed = replay(cfg, &scripts).map(|o| {
            o.iter().map(|o| o.finish_time.to_bits()).collect::<Vec<_>>()
        });
        let reference: Vec<Vec<Op>> = scripts.iter().map(messages).collect();
        match run_to_block(&reference) {
            Ok(()) => {
                prop_assert!(threaded.is_ok(), "reference completes, engine: {threaded:?}");
                prop_assert_eq!(replayed, threaded);
            }
            Err((rank, tag)) => {
                let stalled = Err(SimError::Stalled { rank, step: tag >> 8 });
                prop_assert_eq!(&replayed, &stalled);
                prop_assert_eq!(&threaded, &stalled);
            }
        }
    }
}
