//! Process groups (sub-communicators): `MPI_Comm_split` for the
//! virtual cluster. The paper's recommended usage — several independent
//! CHARMM calculations sharing one cluster — needs exactly this:
//! disjoint groups running their own collectives concurrently.

use crate::comm::Comm;
use cpc_cluster::{Msg, MsgClass, OpShape};

/// A communicator over a subset of the ranks.
///
/// Created collectively via [`Comm::split`]; all group operations must
/// be called by every member (and only members).
pub struct GroupComm<'a, 'b> {
    comm: &'a mut Comm<'b>,
    /// Global ranks of the members, sorted ascending.
    members: Vec<usize>,
    /// This rank's index within `members`.
    local_rank: usize,
    /// Tag namespace salt (derived from the color) so concurrent groups
    /// never cross-match messages.
    salt: u64,
    epoch: u64,
}

impl<'b> Comm<'b> {
    /// Splits the communicator by `color`: ranks passing the same color
    /// form a group, ordered by global rank. Collective over all ranks.
    pub fn split(&mut self, color: u64) -> GroupComm<'_, 'b> {
        // Exchange colors with a plain allgather.
        let colors = self.allgather(vec![color as f64]);
        let members: Vec<usize> = colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c[0] as u64 == color)
            .map(|(r, _)| r)
            .collect();
        let me = self.rank();
        let local_rank = members
            .iter()
            .position(|&r| r == me)
            .expect("caller is a member of its own color group");
        GroupComm {
            comm: self,
            members,
            local_rank,
            salt: 0x6C00_0000_0000 ^ (color.wrapping_mul(0x9E37_79B9) << 20),
            epoch: 0,
        }
    }
}

impl<'b> GroupComm<'_, 'b> {
    /// Rank within the group.
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Parent-communicator rank of group member `local`.
    pub fn global_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    /// Engine rank of group member `local` (members hold parent-comm
    /// logical ranks; the parent maps those to engine ranks).
    fn g(&self, local: usize) -> usize {
        self.comm.to_global(self.members[local])
    }

    /// The underlying full communicator.
    pub fn inner(&mut self) -> &mut Comm<'b> {
        self.comm
    }

    fn tag(&mut self, op: u64) -> u64 {
        self.epoch += 1;
        self.salt | (self.epoch << 4) | op
    }

    /// Point-to-point send to a *local* rank.
    pub fn send(&mut self, dst_local: usize, tag: u64, data: Vec<f64>) {
        let dst = self.g(dst_local);
        let shape = OpShape::p2p();
        self.comm.ctx().send(
            dst,
            self.salt | (tag << 4) | 0xF,
            data,
            MsgClass::Payload,
            shape,
        );
    }

    /// Point-to-point receive from a *local* rank.
    pub fn recv(&mut self, src_local: usize, tag: u64) -> Msg {
        let src = self.g(src_local);
        let t = self.salt | (tag << 4) | 0xF;
        self.comm.ctx().recv(src, t)
    }

    /// Ring barrier within the group.
    pub fn barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.tag(1);
        let right = self.g((self.local_rank + 1) % p);
        let left = self.g((self.local_rank + p - 1) % p);
        // Two half-rings ensure everyone has entered before anyone leaves.
        for round in 0..2u64 {
            self.comm.ctx().send(
                right,
                tag + (round << 32),
                Vec::new(),
                MsgClass::Control,
                OpShape::new(1, p),
            );
            self.comm.ctx().recv(left, tag + (round << 32));
        }
    }

    /// Global sum within the group (ring reduce-scatter + allgather).
    pub fn allreduce_sum(&mut self, data: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.tag(2);
        let right = self.g((self.local_rank + 1) % p);
        let left = self.g((self.local_rank + p - 1) % p);
        let n = data.len();
        let rank = self.local_rank;
        let block = |b: usize| crate::block_range(n, p, b);
        for s in 0..p - 1 {
            let send_b = (rank + p - s) % p;
            let recv_b = (rank + p - s - 1) % p;
            let payload = data[block(send_b)].to_vec();
            self.comm.ctx().send(
                right,
                tag + ((s as u64) << 32),
                payload,
                MsgClass::Payload,
                OpShape::new(1, p),
            );
            let msg = self.comm.ctx().recv(left, tag + ((s as u64) << 32));
            for (a, b) in data[block(recv_b)].iter_mut().zip(&msg.data) {
                *a += b;
            }
        }
        for s in 0..p - 1 {
            let send_b = (rank + 1 + p - s) % p;
            let recv_b = (rank + p - s) % p;
            let payload = data[block(send_b)].to_vec();
            let t = tag + (((p + s) as u64) << 32);
            self.comm
                .ctx()
                .send(right, t, payload, MsgClass::Payload, OpShape::new(1, p));
            let msg = self.comm.ctx().recv(left, t);
            data[block(recv_b)].copy_from_slice(&msg.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Middleware;
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind};

    #[test]
    fn split_forms_correct_groups() {
        let cfg = ClusterConfig::uni(6, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let color = (comm.rank() % 2) as u64;
            let group = comm.split(color);
            (group.rank(), group.size(), group.global_rank(group.rank()))
        });
        for (r, o) in out.iter().enumerate() {
            let (local, size, global) = o.result;
            assert_eq!(size, 3);
            assert_eq!(global, r);
            assert_eq!(local, r / 2);
        }
    }

    #[test]
    fn concurrent_group_allreduce_is_isolated() {
        // Two halves compute different sums at the same time without
        // cross-talk.
        let cfg = ClusterConfig::uni(8, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let color = (comm.rank() / 4) as u64;
            let mut group = comm.split(color);
            let base = if color == 0 { 1.0 } else { 100.0 };
            let mut v = [base * (group.rank() + 1) as f64];
            group.allreduce_sum(&mut v);
            v[0]
        });
        for (r, o) in out.iter().enumerate() {
            let expect = if r < 4 { 10.0 } else { 1000.0 };
            assert_eq!(o.result, expect, "rank {r}");
        }
    }

    #[test]
    fn group_vector_allreduce_with_uneven_blocks() {
        let cfg = ClusterConfig::uni(6, NetworkKind::MyrinetGm);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let color = u64::from(comm.rank() >= 2); // groups of 2 and 4
            let mut group = comm.split(color);
            let mut v = vec![group.rank() as f64 + 1.0; 7];
            group.allreduce_sum(&mut v);
            (color, v)
        });
        for o in &out {
            let (color, v) = &o.result;
            let expect = if *color == 0 { 3.0 } else { 10.0 };
            assert!(v.iter().all(|&x| x == expect), "color {color}: {v:?}");
        }
    }

    #[test]
    fn group_p2p_uses_local_ranks() {
        let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let color = (comm.rank() % 2) as u64;
            let mut group = comm.split(color);
            if group.rank() == 0 {
                group.send(1, 5, vec![color as f64 * 10.0]);
                0.0
            } else {
                group.recv(0, 5).data[0]
            }
        });
        assert_eq!(out[2].result, 0.0 * 10.0);
        assert_eq!(out[3].result, 10.0);
    }

    #[test]
    fn barrier_within_group_does_not_block_other_group() {
        // Group A barriers repeatedly while group B exchanges data:
        // must not deadlock or cross-match.
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let color = u64::from(comm.rank() >= 2);
            let mut group = comm.split(color);
            if color == 0 {
                for _ in 0..5 {
                    group.barrier();
                }
                -1.0
            } else {
                let mut v = [group.rank() as f64];
                group.allreduce_sum(&mut v);
                v[0]
            }
        });
        assert_eq!(out[2].result, 1.0);
        assert_eq!(out[3].result, 1.0);
    }
}
