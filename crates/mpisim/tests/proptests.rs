//! Property-based tests of the collectives: algebraic correctness for
//! arbitrary vectors, rank counts, middlewares and algorithms — and the
//! copy-once ring collectives against the copy-per-step code they
//! replaced (DESIGN.md §24): the same result bits from the same
//! messages at the same virtual times. A collective that carries only
//! lengths sends those same messages as one that carries values.

use cpc_cluster::{run_cluster, ClusterConfig, MsgClass, NetworkKind, OpShape, Phase, RankOutcome};
use cpc_mpi::{block_range, CombineAlgo, Comm, Middleware};
use proptest::prelude::*;

/// `allreduce_ring` and `allgather` of the commit before a forwarded
/// block was moved instead of copied, verbatim over the public
/// point-to-point layer: a `to_vec` per ring step, a `clone` per
/// allgather step. Frozen — never edit alongside `cpc_mpi::comm`.
mod ring_oracle {
    use super::*;

    /// Tags outside every range `Comm` hands out (collectives count up
    /// from `1 << 8`, user tags set bit 63); timing does not read tags.
    const TAG: u64 = 1 << 62;

    fn neighbours(comm: &Comm<'_>) -> (usize, usize) {
        let (p, rank) = (comm.size(), comm.rank());
        let members = comm.members();
        (members[(rank + 1) % p], members[(rank + p - 1) % p])
    }

    /// The split-group close every collective ends with under CMPI.
    fn close_split_group(comm: &mut Comm<'_>) {
        if comm.middleware() == Middleware::Cmpi {
            comm.ring_sync();
        }
    }

    pub fn allreduce_ring(comm: &mut Comm<'_>, data: &mut [f64]) {
        let p = comm.size();
        let tag = TAG;
        if p == 1 {
            return;
        }
        let rank = comm.rank();
        let (right, left) = neighbours(comm);
        let n = data.len();
        let block = |b: usize| block_range(n, p, b);

        // Reduce-scatter: after p-1 steps rank r holds the complete sum
        // of block (r+1) mod p.
        for s in 0..p - 1 {
            let send_b = (rank + p - s) % p;
            let recv_b = (rank + p - s - 1) % p;
            let payload = data[block(send_b)].to_vec();
            comm.ctx().send(
                right,
                tag + ((s as u64) << 40),
                payload,
                MsgClass::Payload,
                OpShape::new(1, p),
            );
            let msg = comm.ctx().recv(left, tag + ((s as u64) << 40));
            let r = block(recv_b);
            assert_eq!(msg.data.len(), r.len());
            for (a, b) in data[r].iter_mut().zip(&msg.data) {
                *a += b;
            }
            comm.ctx().charge_compute(4e-9 * msg.data.len() as f64);
        }
        // Allgather the summed blocks around the ring.
        for s in 0..p - 1 {
            let send_b = (rank + 1 + p - s) % p;
            let recv_b = (rank + p - s) % p;
            let payload = data[block(send_b)].to_vec();
            let t = tag + (((p + s) as u64) << 40);
            comm.ctx()
                .send(right, t, payload, MsgClass::Payload, OpShape::new(1, p));
            let msg = comm.ctx().recv(left, t);
            let r = block(recv_b);
            data[r].copy_from_slice(&msg.data);
        }
        close_split_group(comm);
    }

    pub fn allgather(comm: &mut Comm<'_>, data: Vec<f64>) -> Vec<Vec<f64>> {
        let p = comm.size();
        let tag = TAG;
        let rank = comm.rank();
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p];
        parts[rank] = data;
        if p == 1 {
            return parts;
        }
        let (right, left) = neighbours(comm);
        // Ring: in step s, forward the block received in step s-1.
        let mut cursor = rank;
        for s in 0..p - 1 {
            let block = parts[cursor].clone();
            comm.ctx().send(
                right,
                tag + ((s as u64) << 40),
                block,
                MsgClass::Payload,
                OpShape::new(1, p),
            );
            let msg = comm.ctx().recv(left, tag + ((s as u64) << 40));
            cursor = (cursor + p - 1) % p;
            parts[cursor] = msg.data;
        }
        close_split_group(comm);
        parts
    }
}

/// A rank's clock bit for bit, its message and byte counts, every phase
/// bucket.
type Timing = (u64, u64, u64, Vec<[u64; 3]>);

fn timing<T>(o: &RankOutcome<T>) -> Timing {
    (
        o.finish_time.to_bits(),
        o.stats.msgs_sent,
        o.stats.bytes_sent,
        Phase::ALL
            .iter()
            .map(|&ph| {
                let b = o.stats.bucket(ph);
                [b.comp.to_bits(), b.comm.to_bits(), b.sync.to_bits()]
            })
            .collect(),
    )
}

/// Everything the simulation reads off a rank: its result and its
/// [`timing`].
fn observable<T: Clone>(o: &RankOutcome<T>) -> (T, Timing) {
    (o.result.clone(), timing(o))
}

/// A rank's share of a test vector: signs, magnitudes across thirty
/// decades and exact zeros, so no summation order hides behind
/// exactness.
fn rank_vector(rank: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut s = (seed << 16) ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
            match (s >> 7) % 5 {
                0 => 0.0,
                1 => u * 1e15,
                2 => u * 1e-15,
                _ => u,
            }
        })
        .collect()
}

/// Vector lengths around the block boundaries of `p` ranks: fewer
/// elements than ranks (empty blocks), one short of, at and one past
/// an even split, and an uneven bulk.
fn ring_lengths(p: usize) -> Vec<usize> {
    vec![0, 1, p - 1, p, p + 1, 7 * p - 1, 7 * p + 3, 1000]
}

const RING_RANKS: [usize; 6] = [1, 2, 3, 4, 5, 8];

#[test]
fn copy_once_ring_allreduce_is_the_copy_per_step_one_on_every_observable() {
    for p in RING_RANKS {
        for mw in Middleware::ALL {
            for (k, n) in ring_lengths(p).into_iter().enumerate() {
                // Dual nodes on TCP: intra-node hops, congestion and
                // jitter all feed the clock.
                let cfg = ClusterConfig::dual(p, NetworkKind::TcpGigE);
                let seed = (p * 100 + k) as u64;
                let got = run_cluster(cfg, |ctx| {
                    let mut comm = Comm::new(ctx, mw);
                    let mut v = rank_vector(comm.rank(), n, seed);
                    comm.allreduce_ring(&mut v);
                    // A second call rides on the clocks the first left.
                    comm.allreduce_with(CombineAlgo::Ring, &mut v);
                    v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                });
                let want = run_cluster(cfg, |ctx| {
                    let mut comm = Comm::new(ctx, mw);
                    let mut v = rank_vector(comm.rank(), n, seed);
                    ring_oracle::allreduce_ring(&mut comm, &mut v);
                    ring_oracle::allreduce_ring(&mut comm, &mut v);
                    v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                });
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        observable(g),
                        observable(w),
                        "p={p} {mw:?} n={n} rank {}",
                        g.rank
                    );
                }
            }
        }
    }
}

#[test]
fn copy_once_allgather_is_the_clone_per_step_one_on_every_observable() {
    for p in RING_RANKS {
        for mw in Middleware::ALL {
            for (k, n) in ring_lengths(p).into_iter().enumerate() {
                let cfg = ClusterConfig::dual(p, NetworkKind::TcpGigE);
                let seed = (p * 100 + k) as u64;
                // Uneven parts: rank r contributes its block of `n`.
                let mine = |rank: usize| rank_vector(rank, block_range(n, p, rank).len(), seed);
                let bits = |parts: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                    parts
                        .iter()
                        .map(|part| part.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                let got = run_cluster(cfg, |ctx| {
                    let mut comm = Comm::new(ctx, mw);
                    let parts = comm.allgather(mine(comm.rank()));
                    // The landing form, into one flat destination.
                    let mut flat = vec![f64::NAN; n];
                    comm.allgather_with(mine(comm.rank()), |src, part| {
                        flat[block_range(n, p, src)].copy_from_slice(part);
                    });
                    assert_eq!(bits(vec![flat]), bits(vec![parts.concat()]));
                    bits(parts)
                });
                let want = run_cluster(cfg, |ctx| {
                    let mut comm = Comm::new(ctx, mw);
                    let data = mine(comm.rank());
                    let parts = ring_oracle::allgather(&mut comm, data.clone());
                    ring_oracle::allgather(&mut comm, data);
                    bits(parts)
                });
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        observable(g),
                        observable(w),
                        "p={p} {mw:?} n={n} rank {}",
                        g.rank
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_allreduce_algorithms_agree(
        p in 1usize..9,
        n in 1usize..40,
        seed in 0u64..1000,
        algo_idx in 0usize..3,
        mw_idx in 0usize..2,
    ) {
        let algo = CombineAlgo::ALL[algo_idx];
        let mw = Middleware::ALL[mw_idx];
        let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, mw);
            let r = comm.rank() as f64;
            let mut v: Vec<f64> = (0..n)
                .map(|i| ((seed as f64) * 0.001 + i as f64) * (r + 1.0))
                .collect();
            comm.allreduce_with(algo, &mut v);
            v
        });
        let scale: f64 = (1..=p).map(|k| k as f64).sum();
        let expect: Vec<f64> =
            (0..n).map(|i| ((seed as f64) * 0.001 + i as f64) * scale).collect();
        for o in &out {
            for (a, b) in o.result.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "p={p} algo={algo:?} mw={mw:?}");
            }
        }
        // All ranks agree bitwise (broadcast semantics).
        for o in &out[1..] {
            prop_assert_eq!(&o.result, &out[0].result);
        }
    }

    #[test]
    fn alltoallv_is_a_permutation(
        p in 1usize..9,
        block in 1usize..30,
        mw_idx in 0usize..2,
    ) {
        let mw = Middleware::ALL[mw_idx];
        let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, mw);
            let rank = comm.rank();
            let sends: Vec<Vec<f64>> = (0..p)
                .map(|d| (0..block).map(|k| (rank * 1000 + d * 10 + k) as f64).collect())
                .collect();
            comm.alltoallv(sends)
        });
        for (r, o) in out.iter().enumerate() {
            for (s, got) in o.result.iter().enumerate() {
                let expect: Vec<f64> =
                    (0..block).map(|k| (s * 1000 + r * 10 + k) as f64).collect();
                prop_assert_eq!(got, &expect, "p={} r={} s={}", p, r, s);
            }
        }
    }

    #[test]
    fn allgather_and_gather_agree(
        p in 1usize..9,
        len in 1usize..20,
        mw_idx in 0usize..2,
    ) {
        let mw = Middleware::ALL[mw_idx];
        let cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, mw);
            let mine: Vec<f64> = (0..len).map(|i| (comm.rank() * 100 + i) as f64).collect();
            let everyone = comm.allgather(mine.clone());
            let at_root = comm.gather(0, mine);
            (everyone, at_root)
        });
        let expect: Vec<Vec<f64>> = (0..p)
            .map(|r| (0..len).map(|i| (r * 100 + i) as f64).collect())
            .collect();
        for o in &out {
            prop_assert_eq!(&o.result.0, &expect);
        }
        prop_assert_eq!(out[0].result.1.as_ref().unwrap(), &expect);
    }

    #[test]
    fn barriers_preserve_message_ordering(
        p in 2usize..7,
        rounds in 1usize..5,
        mw_idx in 0usize..2,
    ) {
        // Interleaving barriers with point-to-point traffic must not
        // deadlock or mis-route.
        let mw = Middleware::ALL[mw_idx];
        let cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, mw);
            let mut received = Vec::new();
            for round in 0..rounds {
                let next = (comm.rank() + 1) % p;
                let prev = (comm.rank() + p - 1) % p;
                comm.send(next, round as u64, vec![round as f64]);
                comm.barrier();
                received.push(comm.recv(prev, round as u64)[0]);
                comm.barrier();
            }
            received
        });
        for o in &out {
            prop_assert_eq!(o.result.len(), rounds);
            for (round, v) in o.result.iter().enumerate() {
                prop_assert_eq!(*v, round as f64);
            }
        }
    }
}
