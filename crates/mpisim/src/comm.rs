//! The communicator: MPI-flavoured point-to-point and collective
//! operations over the virtual cluster, implemented — as in CHARMM —
//! entirely on top of point-to-point messages, so every collective's
//! cost emerges from the network model.
//!
//! A communicator addresses peers by *logical* rank and carries a
//! member table mapping logical ranks to engine ranks. At construction
//! the mapping is the identity (zero observable difference from
//! addressing engine ranks directly); after a failure it can be
//! [shrunk](Comm::shrink) to the survivors, which renumbers logical
//! ranks densely so every collective keeps working on the smaller
//! group without change.

use crate::detector::FailureDetector;
use crate::middleware::{CombineAlgo, Middleware};
use cpc_cluster::{CommError, MsgClass, OpShape, RankCtx};

/// Tag space layout: collectives use `epoch << 8 | op`, user messages
/// use the high bit.
const USER_TAG_BASE: u64 = 1 << 63;

/// Operation ids inside a collective epoch.
mod op {
    pub(crate) const BARRIER_UP: u64 = 1;
    pub(crate) const BARRIER_DOWN: u64 = 2;
    pub(crate) const REDUCE: u64 = 3;
    pub(crate) const BCAST: u64 = 4;
    pub(crate) const ALLTOALL: u64 = 5;
    pub(crate) const GATHER: u64 = 6;
    pub(crate) const SYNC_RING: u64 = 7;
    pub(crate) const ALLGATHER: u64 = 8;
    pub(crate) const HEARTBEAT: u64 = 9;
}

/// An MPI-like communicator bound to one rank's execution context.
pub struct Comm<'a> {
    ctx: &'a mut RankCtx,
    middleware: Middleware,
    epoch: u64,
    /// Engine ranks of the live members, ascending. Identity at
    /// construction.
    members: Vec<usize>,
    /// This rank's index in `members` (its logical rank).
    my_local: usize,
}

impl<'a> Comm<'a> {
    /// Wraps a rank context with the chosen middleware style.
    pub fn new(ctx: &'a mut RankCtx, middleware: Middleware) -> Self {
        let members: Vec<usize> = (0..ctx.size()).collect();
        let my_local = ctx.rank();
        Comm {
            ctx,
            middleware,
            epoch: 0,
            members,
            my_local,
        }
    }

    /// This rank's logical rank within the (possibly shrunken)
    /// communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of live members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's engine (original) rank, stable across shrinks.
    pub fn global_rank(&self) -> usize {
        self.members[self.my_local]
    }

    /// Engine ranks of the live members, in logical-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The middleware in use.
    pub fn middleware(&self) -> Middleware {
        self.middleware
    }

    /// Underlying context (for phase control and compute charging).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }

    /// Engine rank of logical rank `local`.
    fn g(&self, local: usize) -> usize {
        self.members[local]
    }

    fn next_epoch(&mut self, op_id: u64) -> u64 {
        self.epoch += 1;
        (self.epoch << 8) | op_id
    }

    /// Removes dead members (named by *engine* rank) from the
    /// communicator and renumbers logical ranks densely. Must be called
    /// collectively by every survivor with the same `dead` set — the
    /// set returned by [`heartbeat`](Comm::heartbeat) is such a set.
    ///
    /// # Panics
    /// If the calling rank itself is in `dead`.
    pub fn shrink(&mut self, dead: &[usize]) {
        let me = self.global_rank();
        assert!(!dead.contains(&me), "rank {me} cannot shrink itself away");
        self.members.retain(|r| !dead.contains(r));
        self.my_local = self
            .members
            .iter()
            .position(|&r| r == me)
            .expect("surviving rank stays a member");
    }

    /// Liveness exchange: every member sends a heartbeat control
    /// message to every other member and collects theirs. Returns the
    /// *engine* ranks of members found dead (crashed peers), which is
    /// identical on every survivor: a peer either completed this epoch
    /// (its heartbeats are in flight to everyone) or crashed at a
    /// safe point before sending any of them.
    ///
    /// Heartbeats ride the reliable control channel, so loss can delay
    /// but never drop them.
    pub fn heartbeat(&mut self) -> Vec<usize> {
        let p = self.size();
        let tag = self.next_epoch(op::HEARTBEAT);
        if p == 1 {
            return Vec::new();
        }
        let shape = OpShape::new(1, p);
        for d in 0..p {
            if d == self.my_local {
                continue;
            }
            let dst = self.g(d);
            self.ctx
                .send(dst, tag, Vec::new(), MsgClass::Control, shape);
        }
        let mut dead = Vec::new();
        for s in 0..p {
            if s == self.my_local {
                continue;
            }
            let src = self.g(s);
            match self.ctx.recv_result(src, tag) {
                Ok(_) => {}
                Err(CommError::PeerDead { peer, .. }) => dead.push(peer),
                // Control messages never tombstone; any other error
                // would be a protocol bug surfaced elsewhere.
                Err(_) => {}
            }
        }
        dead
    }

    /// Liveness exchange with observation: like
    /// [`heartbeat`](Comm::heartbeat), but each heartbeat piggybacks
    /// the sender's `report` (its last normalized per-unit step cost;
    /// pass a negative sentinel when no data exists yet) and an ABFT
    /// replica `digest`, and the received reports and heartbeat wire
    /// times are folded into the failure detector.
    ///
    /// `digest` must be a non-negative integer below 2^53 rendered as
    /// `f64` (see `cpc_md::abft::DIGEST_MASK`), or a negative sentinel
    /// when the caller has no digest to contribute.
    ///
    /// Control messages are modeled at one byte regardless of payload,
    /// so this exchange is **timing- and RNG-identical** to the plain
    /// heartbeat — piggybacking costs nothing and perturbs nothing.
    /// Every member receives the same set of reports (its own is fed
    /// directly), so detector state stays replicated across ranks and
    /// rebalance/evict verdicts need no extra agreement round.
    ///
    /// Returns `(dead, votes)`: `dead` the engine ranks of members found
    /// dead, exactly as [`heartbeat`](Comm::heartbeat) returns them
    /// (dead peers are [forgotten](FailureDetector::forget) by the
    /// detector), and `votes` the `(engine_rank, digest)` pairs collected
    /// this epoch — including the caller's own — sorted by rank and
    /// omitting sentinel entries, ready for `cpc_md::abft::vote`.
    pub fn heartbeat_observed_with(
        &mut self,
        det: &mut FailureDetector,
        report: f64,
        digest: f64,
    ) -> (Vec<usize>, Vec<(usize, f64)>) {
        let p = self.size();
        let tag = self.next_epoch(op::HEARTBEAT);
        det.report(self.global_rank(), report);
        let mut votes = Vec::new();
        if digest >= 0.0 {
            votes.push((self.global_rank(), digest));
        }
        if p == 1 {
            return (Vec::new(), votes);
        }
        let shape = OpShape::new(1, p);
        for d in 0..p {
            if d == self.my_local {
                continue;
            }
            let dst = self.g(d);
            self.ctx
                .send(dst, tag, vec![report, digest], MsgClass::Control, shape);
        }
        let mut dead = Vec::new();
        for s in 0..p {
            if s == self.my_local {
                continue;
            }
            let src = self.g(s);
            match self.ctx.recv_result(src, tag) {
                Ok(m) => {
                    if let Some(&r) = m.data.first() {
                        det.report(src, r);
                    }
                    if let Some(&d) = m.data.get(1) {
                        if d >= 0.0 {
                            votes.push((src, d));
                        }
                    }
                    det.observe_rtt(src, m.arrival - m.departure);
                }
                Err(CommError::PeerDead { peer, .. }) => {
                    det.forget(peer);
                    dead.push(peer);
                }
                Err(_) => {}
            }
        }
        votes.sort_by_key(|&(r, _)| r);
        (dead, votes)
    }

    /// Blocking user-level send.
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        let gdst = self.g(dst);
        self.ctx.send(
            gdst,
            USER_TAG_BASE | tag,
            data,
            MsgClass::Payload,
            OpShape::p2p(),
        );
    }

    /// Blocking user-level receive.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        let gsrc = self.g(src);
        self.ctx.recv(gsrc, USER_TAG_BASE | tag).data
    }

    /// Global synchronization. MPI: binomial-tree barrier with control
    /// messages. CMPI: `p - 1` rounds of 1-byte ring exchanges.
    pub fn barrier(&mut self) {
        match self.middleware {
            Middleware::Mpi => self.tree_barrier(),
            Middleware::Cmpi => self.ring_sync(),
        }
    }

    /// Fault-aware barrier: degrades instead of hanging. A dead peer's
    /// contribution is treated as satisfied (its crash notice releases
    /// the hop), the protocol runs to completion so no survivor is
    /// left blocked, and the first failure observed is returned.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        match self.middleware {
            Middleware::Mpi => self.try_tree_barrier(),
            Middleware::Cmpi => self.try_ring_sync(),
        }
    }

    fn tree_barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            self.epoch += 1;
            return;
        }
        let up = self.next_epoch(op::BARRIER_UP);
        let down = (self.epoch << 8) | op::BARRIER_DOWN;
        let rank = self.rank();
        let shape = OpShape::new(1, p);

        // Fold up the binomial tree.
        let mut mask = 1usize;
        while mask < p {
            if rank & mask != 0 {
                let dst = self.g(rank - mask);
                self.ctx.send(dst, up, Vec::new(), MsgClass::Control, shape);
                break;
            }
            if rank + mask < p {
                let src = self.g(rank + mask);
                self.ctx.recv(src, up);
            }
            mask <<= 1;
        }
        // Broadcast release down the tree.
        let mut mask = p.next_power_of_two() >> 1;
        // Find the level at which this rank receives its release.
        if rank != 0 {
            let lowest = rank & rank.wrapping_neg(); // lowest set bit
            let src = self.g(rank - lowest);
            self.ctx.recv(src, down);
            mask = lowest >> 1;
        }
        while mask >= 1 {
            if rank + mask < p {
                let dst = self.g(rank + mask);
                self.ctx
                    .send(dst, down, Vec::new(), MsgClass::Control, shape);
            }
            mask >>= 1;
        }
    }

    fn try_tree_barrier(&mut self) -> Result<(), CommError> {
        let p = self.size();
        if p == 1 {
            self.epoch += 1;
            return Ok(());
        }
        let up = self.next_epoch(op::BARRIER_UP);
        let down = (self.epoch << 8) | op::BARRIER_DOWN;
        let rank = self.rank();
        let shape = OpShape::new(1, p);
        let mut first_err: Option<CommError> = None;

        let mut mask = 1usize;
        while mask < p {
            if rank & mask != 0 {
                let dst = self.g(rank - mask);
                self.ctx.send(dst, up, Vec::new(), MsgClass::Control, shape);
                break;
            }
            if rank + mask < p {
                let src = self.g(rank + mask);
                if let Err(e) = self.ctx.recv_result(src, up) {
                    // Dead child: its subtree counts as arrived.
                    first_err.get_or_insert(e);
                }
            }
            mask <<= 1;
        }
        let mut mask = p.next_power_of_two() >> 1;
        if rank != 0 {
            let lowest = rank & rank.wrapping_neg();
            let src = self.g(rank - lowest);
            if let Err(e) = self.ctx.recv_result(src, down) {
                // Dead parent: release ourselves, keep releasing the
                // subtree below so nobody hangs.
                first_err.get_or_insert(e);
            }
            mask = lowest >> 1;
        }
        while mask >= 1 {
            if rank + mask < p {
                let dst = self.g(rank + mask);
                self.ctx
                    .send(dst, down, Vec::new(), MsgClass::Control, shape);
            }
            mask >>= 1;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// CMPI synchronization: `p - 1` rounds; in round `k` each rank
    /// sends one byte to `(rank + k) % p` and receives one byte from
    /// `(rank - k) % p`.
    pub fn ring_sync(&mut self) {
        let p = self.size();
        let tag = self.next_epoch(op::SYNC_RING);
        if p == 1 {
            return;
        }
        let rank = self.rank();
        for k in 1..p {
            let dst = self.g((rank + k) % p);
            let src = self.g((rank + p - k) % p);
            self.ctx.send(
                dst,
                tag + ((k as u64) << 40),
                Vec::new(),
                MsgClass::Control,
                OpShape::repeated(1, p),
            );
            self.ctx.recv(src, tag + ((k as u64) << 40));
        }
    }

    fn try_ring_sync(&mut self) -> Result<(), CommError> {
        let p = self.size();
        let tag = self.next_epoch(op::SYNC_RING);
        if p == 1 {
            return Ok(());
        }
        let rank = self.rank();
        let mut first_err: Option<CommError> = None;
        for k in 1..p {
            let dst = self.g((rank + k) % p);
            let src = self.g((rank + p - k) % p);
            self.ctx.send(
                dst,
                tag + ((k as u64) << 40),
                Vec::new(),
                MsgClass::Control,
                OpShape::repeated(1, p),
            );
            if let Err(e) = self.ctx.recv_result(src, tag + ((k as u64) << 40)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Closes a CMPI split-exchange group (no-op under MPI middleware,
    /// where the blocking calls already synchronized).
    fn close_split_group(&mut self) {
        if self.middleware == Middleware::Cmpi {
            self.ring_sync();
        }
    }

    /// Sends `data` as a payload.
    fn send_payload(&mut self, dst: usize, tag: u64, data: Vec<f64>, shape: OpShape) {
        self.ctx.send(dst, tag, data, MsgClass::Payload, shape);
    }

    /// Global sum reduction to rank 0 followed by broadcast — CHARMM's
    /// `GCOMB` force combine (the paper's "all-to-all collective").
    /// `data` holds the local contribution on entry and the global sum
    /// on exit, on every rank.
    pub fn allreduce_sum(&mut self, data: &mut Vec<f64>) {
        let p = self.size();
        let reduce_tag = self.next_epoch(op::REDUCE);
        if p == 1 {
            return;
        }
        let rank = self.rank();
        let shape = OpShape::new(1, p);

        // Binomial fold toward rank 0.
        let mut mask = 1usize;
        while mask < p {
            if rank & mask != 0 {
                let payload = std::mem::take(data);
                let dst = self.g(rank - mask);
                self.send_payload(dst, reduce_tag, payload, shape);
                break;
            }
            if rank + mask < p {
                let src = self.g(rank + mask);
                let arrived = self.ctx.recv(src, reduce_tag).data;
                add_into(data, &arrived);
                // The reduction arithmetic itself is part of the
                // communication routine in CHARMM; charge a small
                // per-element cost as computation.
                let per_add = 4e-9;
                self.ctx.charge_compute(per_add * arrived.len() as f64);
            }
            mask <<= 1;
        }
        self.broadcast_internal(0, data, shape);
        self.close_split_group();
    }

    /// Bandwidth-optimal ring allreduce (reduce-scatter followed by
    /// allgather): each rank moves `2 (p-1)/p` of the vector instead of
    /// the full vector per tree level. Used for the PME charge-grid
    /// sum, whose volume (the full 3D mesh) dwarfs the force combines.
    pub fn allreduce_ring(&mut self, data: &mut [f64]) {
        let p = self.size();
        let tag = self.next_epoch(op::REDUCE);
        if p == 1 {
            return;
        }
        let rank = self.rank();
        let n = data.len();
        let block = |b: usize| crate::block_range(n, p, b % p);

        // Reduce-scatter: each step passes on the block that just
        // arrived with the local share added in, so after p-1 steps the
        // block in hand is the complete sum of block (r+1) mod p. The
        // partial sums in between live only in the travelling block.
        let own = data[block(rank)].to_vec();
        let sum = self.ring_steps(tag, 0, own, |ctx, s, arrived| {
            let local = block(rank + p - s - 1);
            assert_eq!(arrived.len(), local.len());
            for (a, l) in arrived.iter_mut().zip(&data[local]) {
                // `local + arrived`, the operand order of the in-place
                // `local += arrived` this replaces.
                let sum = *l + *a;
                *a = sum;
            }
            ctx.charge_compute(4e-9 * arrived.len() as f64);
        });
        data[block(rank + 1)].copy_from_slice(&sum);
        // Allgather the summed blocks around the ring.
        self.ring_steps(tag, p, sum, |_, s, arrived| {
            data[block(rank + p - s)].copy_from_slice(arrived);
        });
        self.close_split_group();
    }

    /// The loop all ring collectives share: `p - 1` times, send the
    /// block in hand to the right neighbour, receive the left
    /// neighbour's, let `arrive(ctx, step, block)` read or update it,
    /// and carry it into the next step. A block is allocated by the rank
    /// that produces it, *moved* when forwarded and copied only into its
    /// final destination (by `arrive`). Steps are tagged
    /// `tag + (first_step + s) << 40`; the last arrival is returned.
    fn ring_steps(
        &mut self,
        tag: u64,
        first_step: usize,
        mut block: Vec<f64>,
        mut arrive: impl FnMut(&mut RankCtx, usize, &mut Vec<f64>),
    ) -> Vec<f64> {
        let p = self.size();
        let rank = self.rank();
        let right = self.g((rank + 1) % p);
        let left = self.g((rank + p - 1) % p);
        for s in 0..p - 1 {
            let t = tag + (((first_step + s) as u64) << 40);
            let sent = std::mem::take(&mut block);
            self.send_payload(right, t, sent, OpShape::new(1, p));
            block = self.ctx.recv(left, t).data;
            arrive(self.ctx, s, &mut block);
        }
        block
    }

    /// Flat master-based global sum, the structure of early parallel
    /// CHARMM's `GCOMB`/`VDGSUM`: every rank sends its contribution to
    /// rank 0 (an incast), rank 0 reduces and sends the result back to
    /// everyone (an outcast). On TCP the incast congestion makes this
    /// visibly worse than a tree at scale — part of the classic
    /// calculation's overhead growth the paper measures.
    fn allreduce_flat(&mut self, data: &mut Vec<f64>) {
        let p = self.size();
        let tag = self.next_epoch(op::REDUCE);
        if p == 1 {
            return;
        }
        let rank = self.rank();
        let shape = OpShape::new(p - 1, p);
        if rank == 0 {
            for src in 1..p {
                let gsrc = self.g(src);
                let arrived = self.ctx.recv(gsrc, tag).data;
                add_into(data, &arrived);
                self.ctx.charge_compute(4e-9 * arrived.len() as f64);
            }
            for dst in 1..p {
                let gdst = self.g(dst);
                self.send_payload(gdst, tag + (1 << 40), data.clone(), shape);
            }
        } else {
            let payload = std::mem::take(data);
            let root = self.g(0);
            self.send_payload(root, tag, payload, shape);
            *data = self.ctx.recv(root, tag + (1 << 40)).data;
        }
        self.close_split_group();
    }

    /// Dispatches a global sum to the selected algorithm.
    pub fn allreduce_with(&mut self, algo: CombineAlgo, data: &mut Vec<f64>) {
        match algo {
            CombineAlgo::Flat => self.allreduce_flat(data),
            CombineAlgo::Tree => self.allreduce_sum(data),
            CombineAlgo::Ring => self.allreduce_ring(data),
        }
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree).
    pub fn broadcast(&mut self, root: usize, data: &mut Vec<f64>) {
        let p = self.size();
        let shape = OpShape::new(1, p);
        self.epoch += 1;
        self.broadcast_internal(root, data, shape);
        self.close_split_group();
    }

    fn broadcast_internal(&mut self, root: usize, data: &mut Vec<f64>, shape: OpShape) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = (self.epoch << 8) | op::BCAST;
        // Rotate ranks so the root is 0 in tree coordinates.
        let vrank = (self.rank() + p - root) % p;

        if vrank != 0 {
            let lowest = vrank & vrank.wrapping_neg();
            let parent = self.g(((vrank - lowest) + root) % p);
            *data = self.ctx.recv(parent, tag).data;
            let mut mask = lowest >> 1;
            while mask >= 1 {
                if vrank + mask < p {
                    let child = self.g(((vrank + mask) + root) % p);
                    self.send_payload(child, tag, data.clone(), shape);
                }
                mask >>= 1;
            }
        } else {
            let mut mask = p.next_power_of_two() >> 1;
            while mask >= 1 {
                if mask < p && vrank + mask < p {
                    let child = self.g(((vrank + mask) + root) % p);
                    self.send_payload(child, tag, data.clone(), shape);
                }
                mask >>= 1;
            }
        }
    }
    /// Gathers each rank's vector at `root`; returns `Some(parts)` on
    /// the root (indexed by rank) and `None` elsewhere. Flat algorithm,
    /// as in early CHARMM ports.
    pub fn gather(&mut self, root: usize, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let p = self.size();
        let tag = self.next_epoch(op::GATHER);
        let result = if self.rank() == root {
            let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p];
            parts[root] = data;
            #[allow(clippy::needless_range_loop)]
            for src in 0..p {
                if src != root {
                    let gsrc = self.g(src);
                    parts[src] = self.ctx.recv(gsrc, tag).data;
                }
            }
            Some(parts)
        } else {
            let groot = self.g(root);
            self.ctx
                .send(groot, tag, data, MsgClass::Payload, OpShape::new(p - 1, p));
            None
        };
        self.close_split_group();
        result
    }

    /// All ranks end up with every rank's vector (ring allgather).
    pub fn allgather(&mut self, data: Vec<f64>) -> Vec<Vec<f64>> {
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); self.size()];
        self.allgather_with(data, |src, part| parts[src] = part.to_vec());
        parts
    }

    /// Ring allgather that hands every rank's vector — the caller's own
    /// included — to `land(source rank, vector)` as it passes through,
    /// for callers that unpack each part into a destination of their
    /// own: one copy per part, and no `Vec` of parts in between.
    pub fn allgather_with(&mut self, data: Vec<f64>, mut land: impl FnMut(usize, &[f64])) {
        let p = self.size();
        let tag = self.next_epoch(op::ALLGATHER);
        let rank = self.rank();
        land(rank, &data);
        if p == 1 {
            return;
        }
        // In step s the block of rank (rank - s - 1) mod p arrives.
        self.ring_steps(tag, 0, data, |_, s, arrived| {
            land((rank + p - s - 1) % p, arrived);
        });
        self.close_split_group();
    }

    /// Scatters rank-indexed blocks from `root`: rank `r` receives
    /// `parts[r]`. Only the root supplies `parts`.
    ///
    /// # Panics
    /// On a protocol violation (root without blocks, wrong block
    /// count), with a message naming the offending rank. Use
    /// `try_scatter` to handle those as values.
    pub fn scatter(&mut self, root: usize, parts: Option<Vec<Vec<f64>>>) -> Vec<f64> {
        match self.try_scatter(root, parts) {
            Ok(block) => block,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible scatter: protocol violations come back as
    /// [`CommError::Protocol`] naming the offending rank instead of a
    /// panic. (On an error return the collective is aborted locally;
    /// peers blocked on the root will only unblock if the root
    /// crashes or resends — exactly as with the panicking variant.)
    pub(crate) fn try_scatter(
        &mut self,
        root: usize,
        parts: Option<Vec<Vec<f64>>>,
    ) -> Result<Vec<f64>, CommError> {
        let p = self.size();
        let tag = self.next_epoch(op::GATHER);
        let result = if self.rank() == root {
            let Some(mut parts) = parts else {
                return Err(CommError::Protocol {
                    rank: self.global_rank(),
                    what: "scatter root called without its blocks".to_string(),
                });
            };
            if parts.len() != p {
                return Err(CommError::Protocol {
                    rank: self.global_rank(),
                    what: format!(
                        "scatter needs one block per rank: got {}, p={p}",
                        parts.len()
                    ),
                });
            }
            let shape = OpShape::new(p - 1, p);
            let mine = std::mem::take(&mut parts[root]);
            for (dst, block) in parts.into_iter().enumerate() {
                if dst != root {
                    let gdst = self.g(dst);
                    self.ctx.send(gdst, tag, block, MsgClass::Payload, shape);
                }
            }
            mine
        } else {
            let groot = self.g(root);
            self.ctx.recv(groot, tag).data
        };
        self.close_split_group();
        Ok(result)
    }

    /// All-to-all personalized exchange (the parallel FFT transpose —
    /// the paper's "all-to-all personalized communication"): pairwise
    /// blocking rounds under MPI, one split send group under CMPI.
    ///
    /// `sends[d]` is the block for rank `d` (`sends[rank]` stays local).
    /// Returns the blocks received, indexed by source.
    pub fn alltoallv(&mut self, mut sends: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "one block per destination required");
        let tag = self.next_epoch(op::ALLTOALL);
        let rank = self.rank();
        let own = std::mem::take(&mut sends[rank]);
        if p == 1 {
            return vec![own];
        }
        let mut recvs = vec![Vec::new(); p];

        match self.middleware {
            Middleware::Mpi => {
                // Pairwise blocking exchange rounds.
                for k in 1..p {
                    let dst = (rank + k) % p;
                    let src = (rank + p - k) % p;
                    let block = std::mem::take(&mut sends[dst]);
                    let gdst = self.g(dst);
                    let gsrc = self.g(src);
                    let t = tag + ((k as u64) << 40);
                    self.send_payload(gdst, t, block, OpShape::new(1, p));
                    recvs[src] = self.ctx.recv(gsrc, t).data;
                }
            }
            Middleware::Cmpi => {
                // Split: post every send, then drain every receive.
                for k in 1..p {
                    let dst = (rank + k) % p;
                    let block = std::mem::take(&mut sends[dst]);
                    let gdst = self.g(dst);
                    // Split groups push every message at once: the
                    // receiver endpoint sees p-1 concurrent flows.
                    let t = tag + ((k as u64) << 40);
                    self.send_payload(gdst, t, block, OpShape::new(p - 1, p));
                }
                for k in 1..p {
                    let src = (rank + p - k) % p;
                    let gsrc = self.g(src);
                    recvs[src] = self.ctx.recv(gsrc, tag + ((k as u64) << 40)).data;
                }
                self.ring_sync();
            }
        }
        recvs[rank] = own;
        recvs
    }
}

fn add_into(acc: &mut [f64], other: &[f64]) {
    assert_eq!(acc.len(), other.len(), "reduction length mismatch");
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{
        run_cluster, run_cluster_faulty, ClusterConfig, FaultPlan, NetworkKind, Phase,
    };

    fn for_each_config(f: impl Fn(usize, Middleware)) {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for mw in Middleware::ALL {
                f(p, mw);
            }
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                let mut v = vec![comm.rank() as f64, 1.0];
                comm.allreduce_sum(&mut v);
                v
            });
            let expect_sum = (0..p).sum::<usize>() as f64;
            for o in &out {
                assert_eq!(o.result, vec![expect_sum, p as f64], "p={p} mw={mw:?}");
            }
        });
    }

    #[test]
    fn ring_allreduce_matches_tree_allreduce() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                let n = 37; // not divisible by p: exercises uneven blocks
                let mut v: Vec<f64> = (0..n).map(|i| (i * (comm.rank() + 1)) as f64).collect();
                comm.allreduce_ring(&mut v);
                v
            });
            let total_scale: f64 = (1..=p).sum::<usize>() as f64;
            let expect: Vec<f64> = (0..37).map(|i| i as f64 * total_scale).collect();
            for o in &out {
                for (a, b) in o.result.iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-9, "p={p} mw={mw:?}");
                }
            }
        });
    }

    #[test]
    fn broadcast_distributes_root_data() {
        for_each_config(|p, mw| {
            for root in [0, p - 1] {
                let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
                let out = run_cluster(cfg, |ctx| {
                    let mut comm = Comm::new(ctx, mw);
                    let mut v = if comm.rank() == root {
                        vec![3.25, -1.0]
                    } else {
                        Vec::new()
                    };
                    comm.broadcast(root, &mut v);
                    v
                });
                for o in &out {
                    assert_eq!(o.result, vec![3.25, -1.0], "p={p} root={root} mw={mw:?}");
                }
            }
        });
    }

    #[test]
    fn gather_collects_at_root() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                comm.gather(0, vec![comm.rank() as f64; comm.rank() + 1])
            });
            let parts = out[0].result.as_ref().expect("root has data");
            for (r, part) in parts.iter().enumerate() {
                assert_eq!(part, &vec![r as f64; r + 1], "p={p} mw={mw:?}");
            }
            for o in &out[1..] {
                assert!(o.result.is_none());
            }
        });
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                comm.allgather(vec![comm.rank() as f64 * 10.0])
            });
            for o in &out {
                for (r, part) in o.result.iter().enumerate() {
                    assert_eq!(part, &vec![r as f64 * 10.0], "p={p} mw={mw:?}");
                }
            }
        });
    }

    #[test]
    fn alltoallv_transposes_blocks() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                let rank = comm.rank();
                // Block for dst d encodes (src, dst).
                let sends: Vec<Vec<f64>> = (0..p).map(|d| vec![rank as f64, d as f64]).collect();
                comm.alltoallv(sends)
            });
            for (r, o) in out.iter().enumerate() {
                for (s, block) in o.result.iter().enumerate() {
                    assert_eq!(block, &vec![s as f64, r as f64], "p={p} mw={mw:?}");
                }
            }
        });
    }

    #[test]
    fn scatter_distributes_root_blocks() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::ScoreGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                let parts = (comm.rank() == 0)
                    .then(|| (0..p).map(|r| vec![r as f64; r + 1]).collect::<Vec<_>>());
                comm.scatter(0, parts)
            });
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o.result, vec![r as f64; r + 1], "p={p} mw={mw:?}");
            }
        });
    }

    #[test]
    fn scatter_without_blocks_is_a_typed_protocol_error() {
        let cfg = ClusterConfig::uni(1, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            comm.try_scatter(0, None)
        });
        match &out[0].result {
            Err(CommError::Protocol { rank, what }) => {
                assert_eq!(*rank, 0);
                assert!(what.contains("without its blocks"));
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn barrier_completes_and_charges_sync_time() {
        for_each_config(|p, mw| {
            let cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                ctx.set_phase(Phase::Classic);
                let mut comm = Comm::new(ctx, mw);
                comm.barrier();
                comm.barrier();
            });
            if p > 1 {
                for o in &out {
                    let b = o.stats.bucket(Phase::Classic);
                    assert!(b.sync > 0.0, "p={p} mw={mw:?}");
                    assert_eq!(b.comm, 0.0, "barriers are pure synchronization");
                }
            }
        });
    }

    #[test]
    fn cmpi_barrier_is_much_slower_on_tcp_at_scale() {
        let time_for = |mw: Middleware| {
            let cfg = ClusterConfig::uni(8, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                for _ in 0..20 {
                    comm.barrier();
                }
            });
            cpc_cluster::elapsed_time(&out)
        };
        let mpi = time_for(Middleware::Mpi);
        let cmpi = time_for(Middleware::Cmpi);
        assert!(cmpi > 3.0 * mpi, "MPI {mpi} vs CMPI {cmpi}");
    }

    #[test]
    fn cmpi_barrier_is_fine_on_myrinet() {
        let time_for = |mw: Middleware| {
            let cfg = ClusterConfig::uni(8, NetworkKind::MyrinetGm);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, mw);
                for _ in 0..20 {
                    comm.barrier();
                }
            });
            cpc_cluster::elapsed_time(&out)
        };
        let mpi = time_for(Middleware::Mpi);
        let cmpi = time_for(Middleware::Cmpi);
        // Ring sync costs more rounds but no pathology: within ~8x.
        assert!(cmpi < 8.0 * mpi, "MPI {mpi} vs CMPI {cmpi}");
    }

    #[test]
    fn user_p2p_roundtrip() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            if comm.rank() == 0 {
                comm.send(1, 9, vec![1.0, 2.0, 3.0]);
                comm.recv(1, 10)
            } else {
                let v = comm.recv(0, 9);
                comm.send(0, 10, v.iter().map(|x| x * 2.0).collect());
                Vec::new()
            }
        });
        assert_eq!(out[0].result, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn collective_timing_is_deterministic() {
        let run_once = || {
            let cfg = ClusterConfig::uni(8, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                let mut v = vec![comm.rank() as f64; 10_000];
                comm.allreduce_sum(&mut v);
                let blocks: Vec<Vec<f64>> = (0..comm.size()).map(|d| vec![d as f64; 500]).collect();
                comm.alltoallv(blocks);
                comm.barrier();
            });
            out.iter().map(|o| o.finish_time).collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn heartbeat_detects_crashed_peer_consistently() {
        for mw in Middleware::ALL {
            let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
            let plan = FaultPlan::none().with_crash(2, 0.0);
            let out = run_cluster_faulty(cfg, plan, |ctx| {
                ctx.charge_compute(1e-6);
                ctx.poll_crash(); // rank 2 dies here
                let mut comm = Comm::new(ctx, mw);
                comm.heartbeat()
            })
            .unwrap();
            for o in &out {
                if o.rank == 2 {
                    assert!(o.crashed);
                } else {
                    assert_eq!(
                        o.result.as_ref().expect("survivor"),
                        &vec![2],
                        "mw={mw:?} rank {}",
                        o.rank
                    );
                }
            }
        }
    }

    #[test]
    fn observed_heartbeat_is_timing_identical_to_plain_heartbeat() {
        use crate::detector::{DetectorConfig, FailureDetector};
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let plain = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            comm.heartbeat();
            comm.barrier();
            ctx.now()
        });
        let observed = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let mut det = FailureDetector::new(comm.size(), DetectorConfig::default());
            comm.heartbeat_observed_with(&mut det, 1.5, -1.0);
            comm.barrier();
            assert!(det.srtt_max().is_some(), "heartbeat RTTs were observed");
            ctx.now()
        });
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(
                a.finish_time.to_bits(),
                b.finish_time.to_bits(),
                "piggybacked reports must not perturb timing (rank {})",
                a.rank
            );
        }
    }

    #[test]
    fn observed_heartbeat_replicates_detector_verdicts() {
        use crate::detector::{DetectorConfig, FailureDetector};
        let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let mut det = FailureDetector::new(comm.size(), DetectorConfig::default());
            // Rank 3 reports 4x cost; everyone else is nominal.
            let report = if comm.rank() == 3 { 4.0 } else { 1.0 };
            for _ in 0..3 {
                let dead = comm.heartbeat_observed_with(&mut det, report, -1.0).0;
                assert!(dead.is_empty());
            }
            let members: Vec<usize> = comm.members().to_vec();
            (det.evict_candidate(&members), det.relative_costs(&members))
        });
        for o in &out {
            let (evict, rel) = o.result.clone();
            assert_eq!(evict, Some(3), "verdict replicated on rank {}", o.rank);
            assert_eq!(rel, Some(vec![1.0, 1.0, 1.0, 4.0]));
        }
    }

    #[test]
    fn observed_heartbeat_detects_crashes_like_plain_heartbeat() {
        use crate::detector::{DetectorConfig, FailureDetector};
        let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
        let plan = FaultPlan::none().with_crash(2, 0.0);
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            ctx.charge_compute(1e-6);
            ctx.poll_crash();
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let mut det = FailureDetector::new(comm.size(), DetectorConfig::default());
            comm.heartbeat_observed_with(&mut det, 1.0, -1.0).0
        })
        .unwrap();
        for o in &out {
            if o.rank == 2 {
                assert!(o.crashed);
            } else {
                assert_eq!(o.result.as_ref().expect("survivor"), &vec![2]);
            }
        }
    }

    #[test]
    fn delivered_sends_feed_the_rtt_estimator() {
        // The estimator that reads wire times is the failure detector's:
        // every delivered heartbeat folds one sample in, and a dead
        // peer's tombstone folds none.
        use crate::detector::{DetectorConfig, FailureDetector};
        let cfg = ClusterConfig::uni(3, NetworkKind::ScoreGigE);
        let plan = FaultPlan::none().with_crash(2, 0.0);
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            ctx.charge_compute(1e-6);
            ctx.poll_crash();
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let mut det = FailureDetector::new(comm.size(), DetectorConfig::default());
            comm.heartbeat_observed_with(&mut det, 1.0, -1.0);
            (0..3).map(|r| det.srtt(r)).collect::<Vec<_>>()
        })
        .unwrap();
        for o in out.iter().filter(|o| o.rank != 2) {
            let srtt = o.result.as_ref().expect("survivor");
            let peer = 1 - o.rank;
            let sample = srtt[peer].expect("one delivered heartbeat");
            assert!(sample > 0.0 && sample.is_finite(), "rank {}", o.rank);
            assert_eq!(srtt[o.rank], None, "no heartbeat to itself");
            assert_eq!(srtt[2], None, "the dead peer sent none");
        }
    }

    #[test]
    fn shrunken_comm_runs_collectives_among_survivors() {
        for mw in Middleware::ALL {
            let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
            let plan = FaultPlan::none().with_crash(1, 0.0);
            let out = run_cluster_faulty(cfg, plan, |ctx| {
                ctx.charge_compute(1e-6);
                ctx.poll_crash();
                let mut comm = Comm::new(ctx, mw);
                let dead = comm.heartbeat();
                comm.shrink(&dead);
                assert_eq!(comm.size(), 3);
                // Survivors 0, 2, 3 get logical ranks 0, 1, 2.
                let mut v = vec![comm.global_rank() as f64];
                comm.allreduce_sum(&mut v);
                let gathered = comm.allgather(vec![comm.rank() as f64]);
                comm.barrier();
                (v[0], gathered.len())
            })
            .unwrap();
            for o in &out {
                if o.rank == 1 {
                    assert!(o.crashed);
                } else {
                    let (sum, parts) = o.result.expect("survivor");
                    assert_eq!(sum, 5.0, "0 + 2 + 3, mw={mw:?}");
                    assert_eq!(parts, 3);
                }
            }
        }
    }

    #[test]
    fn try_barrier_degrades_instead_of_hanging() {
        for mw in Middleware::ALL {
            let cfg = ClusterConfig::uni(4, NetworkKind::ScoreGigE);
            let plan = FaultPlan::none().with_crash(3, 0.0);
            let out = run_cluster_faulty(cfg, plan, |ctx| {
                ctx.charge_compute(1e-6);
                ctx.poll_crash();
                let mut comm = Comm::new(ctx, mw);
                comm.try_barrier()
            })
            .unwrap();
            for o in &out {
                if o.rank == 3 {
                    assert!(o.crashed);
                } else {
                    // Everyone returns; whoever talked to the dead rank
                    // reports it, nobody hangs.
                    assert!(o.result.is_some(), "rank {} returned", o.rank);
                }
            }
        }
    }

    #[test]
    fn half_entered_collective_surfaces_stalled_not_hang() {
        // Rank 2 never joins the barrier: the ranks that did enter wait
        // on peers that will never arrive. The termination oracle
        // depends on this surfacing as a typed SimError::Stalled
        // instead of hanging the process.
        let cfg = ClusterConfig::uni(3, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            if comm.rank() != 2 {
                comm.barrier();
            }
        });
        match result {
            Err(cpc_cluster::SimError::Stalled { rank, .. }) => {
                assert!(rank != 2, "a rank stuck inside the barrier stalls");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }

        // Same for a value-moving collective with inconsistent
        // membership.
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            if comm.rank() == 0 {
                let mut v = vec![1.0];
                comm.allreduce_sum(&mut v);
            }
        });
        assert!(
            matches!(result, Err(cpc_cluster::SimError::Stalled { .. })),
            "got {result:?}"
        );
    }
}
