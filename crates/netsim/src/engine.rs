//! The virtual-time execution engine.
//!
//! Ranks run as real OS threads executing the *real* parallel algorithm
//! with real data exchange; only time is virtual. Each rank owns a
//! virtual clock:
//!
//! * computation advances the clock by modeled cost (from operation
//!   counts and the [`crate::cost::CostModel`]),
//! * a message's arrival time is computed **at send time** from the
//!   network model and a per-channel deterministic RNG, so results are
//!   bit-identical regardless of OS scheduling,
//! * a blocking receive completes at `max(local clock, arrival)` plus
//!   the receive overhead; the elapsed virtual time is booked as
//!   communication (payload) or synchronization (control), matching the
//!   paper's time classification.
//!
//! Fault injection (see [`crate::faults`]) preserves all of the above:
//! lost messages are re-costed through the retransmission model *at
//! send time*, a given-up message is delivered as a tombstone (so the
//! receiver unblocks deterministically and gets a typed
//! [`CommError::Timeout`]), and a crashing rank enqueues crash notices
//! into every mailbox before unwinding, so any later receive from it
//! surfaces [`CommError::PeerDead`] instead of blocking forever.
//!
//! A fault-free run can also be recorded ([`run_cluster_recorded`]): each
//! rank's [`Script`] of engine operations, charges in calibration
//! seconds. Virtual time is a function of the scripts and the platform,
//! so [`link`] orders them once into a [`Schedule`], and
//! [`Schedule::replay`] costs it on any platform in one pass on one
//! thread, through the same send costing, receive completion and compute
//! charge.

use crate::cluster::ClusterConfig;
use crate::faults::{FaultPlan, LinkFault};
use crate::netmodel::{LinkTerms, NetworkParams, OpShape, TransferCtx};
use crate::rng::SplitMix64;
use crate::stats::{MsgClass, Phase, RankStats, ThroughputSample};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Reserved tag carried by crash notices. User code must not send with
/// this tag.
pub(crate) const CRASH_TAG: u64 = u64::MAX;

/// A message in flight (or delivered).
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: u64,
    /// Payload (possibly empty for control messages; always empty for a
    /// [replayed](Schedule::replay) one).
    pub data: Vec<f64>,
    /// Modeled size in bytes (may exceed `data` size, e.g. headers).
    pub bytes: usize,
    /// Classification for the comm/sync split.
    pub class: MsgClass,
    /// Virtual time the message left the sender.
    pub departure: f64,
    /// Virtual time the message reaches the receiver (for a tombstone:
    /// the time the sending transport gave up).
    pub arrival: f64,
    /// True for a tombstone: the transport gave up retransmitting and
    /// the payload never arrives. Only
    /// [`recv_result`](RankCtx::recv_result) consumes tombstones.
    pub lost: bool,
}

/// Typed communication failure surfaced by the fault-aware receive
/// paths instead of blocking forever.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// The peer's transport gave up delivering the awaited message (or
    /// the receive-side watchdog fired on a lost message).
    Timeout {
        /// The peer rank the message was expected from.
        peer: usize,
        /// The awaited tag.
        tag: u64,
        /// Virtual time the error surfaced on the receiver.
        at: f64,
    },
    /// The peer rank crashed and will never send again.
    PeerDead {
        /// The crashed rank.
        peer: usize,
        /// Virtual time the error surfaced on the receiver.
        at: f64,
    },
    /// A collective was invoked inconsistently (programming error),
    /// named after the offending rank.
    Protocol {
        /// The rank that broke the protocol.
        rank: usize,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { peer, tag, at } => {
                write!(
                    f,
                    "timeout waiting for rank {peer} (tag {tag:#x}) at t={at:.6}s"
                )
            }
            CommError::PeerDead { peer, at } => {
                write!(f, "rank {peer} is dead (detected at t={at:.6}s)")
            }
            CommError::Protocol { rank, what } => {
                write!(f, "protocol error on rank {rank}: {what}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Typed simulation-level failure from the cluster entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cluster configuration failed validation.
    InvalidConfig(String),
    /// The fault plan failed validation against the configuration.
    InvalidFaultPlan(String),
    /// A rank body panicked (a genuine bug, not a simulated crash).
    RankPanicked {
        /// The rank whose body panicked.
        rank: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// No rank can move: every rank has finished, crashed, panicked or
    /// is blocked in a receive that nothing queued satisfies, so no
    /// message can ever be sent again (e.g. a collective entered with
    /// inconsistent membership, or an infallible receive on a message
    /// the transport gave up on). Detected exactly, the moment the last
    /// rank blocks or leaves — host time plays no part. This is the
    /// termination oracle's evidence that a run would otherwise hang
    /// forever; the lowest blocked rank is the one named.
    Stalled {
        /// The rank whose receive stalled.
        rank: usize,
        /// High bits (`tag >> 8`) of the awaited tag; for `cpc-mpi`
        /// collectives this is the collective epoch, so it locates the
        /// stuck operation.
        step: u64,
    },
    /// [`link`] met a value too large for its field of a schedule step:
    /// a rank, a slot, a shape index or a message length.
    DoesNotFit {
        /// The field.
        field: &'static str,
        /// The value.
        value: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig(why) => write!(f, "invalid cluster configuration: {why}"),
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::Stalled { rank, step } => {
                write!(f, "rank {rank} stalled in epoch {step}: no rank can move")
            }
            SimError::DoesNotFit { field, value } => {
                write!(f, "a schedule step cannot hold {field} {value}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a send on the modeled transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendOutcome {
    /// False when the transport gave up and delivered a tombstone.
    pub delivered: bool,
    /// Retransmission rounds the transfer went through.
    pub retransmits: u32,
    /// Modeled wire time of the transfer (arrival minus departure),
    /// seconds — the sender-side RTT sample for adaptive
    /// retransmission timers.
    pub wire: f64,
}

/// One operation a rank issued to the engine, as
/// [`run_cluster_recorded`] keeps it and [`link`] orders it.
/// Nothing in it names the platform: a compute charge is in
/// calibration seconds, before the node's clock and contention scale
/// it, and a send carries its length and shape but no values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// [`RankCtx::set_phase`].
    Phase(Phase),
    /// [`RankCtx::charge_compute`] of this many calibration seconds.
    Compute(f64),
    /// [`RankCtx::send`] of `len` values.
    Send {
        /// Destination rank.
        dst: usize,
        /// User tag.
        tag: u64,
        /// Number of values sent.
        len: usize,
        /// Classification for the comm/sync split.
        class: MsgClass,
        /// Shape of the enclosing operation.
        shape: OpShape,
    },
    /// A receive that completed with the message from `src` with `tag`.
    Recv {
        /// Sending rank.
        src: usize,
        /// User tag.
        tag: u64,
    },
}

/// Every operation one rank issued to the engine, in order.
pub type Script = Vec<Op>;

/// Unwind payload of a simulated crash (distinguished from genuine
/// panics by `catch_unwind` downcasting).
struct CrashUnwind;

/// Unwind payload of a stalled receive (see [`SimError::Stalled`]).
struct StallUnwind {
    rank: usize,
    step: u64,
}

#[derive(Default)]
struct Inbox {
    queue: VecDeque<Msg>,
    /// Set by the owner when it looked and found nothing to take;
    /// cleared by the next post. While it is set the owner is counted
    /// in [`Shared::quiescent`].
    waiting: bool,
}

#[derive(Default)]
struct Mailbox {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

impl Mailbox {
    /// No holder panics — every critical section is a queue edit, a
    /// flag and a counter — so the mutex is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox
            .lock()
            .expect("mailbox critical sections do not panic")
    }
}

/// Where a rank sits, fixed for a run.
#[derive(Debug, Clone, Copy)]
struct Seat {
    /// [`ClusterConfig::node_of`].
    node: usize,
    /// [`ClusterConfig::ranks_on_node_of`].
    ranks_on_node: usize,
    /// [`ClusterConfig::compute_scale`].
    compute_scale: f64,
}

/// Everything a run's operations are costed against, computed once per
/// run: the configuration, its network, the fault plan and every rank's
/// seat.
struct Platform {
    config: ClusterConfig,
    net: NetworkParams,
    plan: FaultPlan,
    seats: Vec<Seat>,
}

impl Platform {
    /// The platform of one run, after validating its inputs.
    fn new(config: ClusterConfig, plan: FaultPlan) -> Result<Self, SimError> {
        config.validate().map_err(SimError::InvalidConfig)?;
        plan.validate(config.ranks, config.nodes())
            .map_err(SimError::InvalidFaultPlan)?;
        let seats = (0..config.ranks)
            .map(|rank| Seat {
                node: config.node_of(rank),
                ranks_on_node: config.ranks_on_node_of(rank),
                compute_scale: config.compute_scale(rank),
            })
            .collect();
        Ok(Platform {
            config,
            net: config.network.params(),
            plan,
            seats,
        })
    }

    /// The route of a send of `shape` from `src` to `dst`.
    fn route(&self, src: usize, dst: usize, shape: OpShape) -> Route {
        let (src, dst) = (&self.seats[src], &self.seats[dst]);
        Route::new(
            &self.net,
            TransferCtx {
                shape,
                src_ranks_per_node: src.ranks_on_node,
                dst_ranks_per_node: dst.ranks_on_node,
                same_node: src.node == dst.node,
            },
        )
    }

    /// Which of the eight kinds of seat pair `src` and `dst` are: the
    /// ranks on each one's node (one or two) and whether they share it.
    fn pair_kind(&self, src: usize, dst: usize) -> usize {
        let (src, dst) = (&self.seats[src], &self.seats[dst]);
        debug_assert!(src.ranks_on_node <= 2 && dst.ranks_on_node <= 2);
        (src.ranks_on_node - 1) * 4
            + (dst.ranks_on_node - 1) * 2
            + usize::from(src.node == dst.node)
    }

    /// The routes of `shape` for every [kind of seat pair](Self::pair_kind).
    fn routes(&self, shape: OpShape) -> impl Iterator<Item = Route> + '_ {
        (0..8).map(move |kind| {
            let ctx = TransferCtx {
                shape,
                src_ranks_per_node: kind / 4 + 1,
                dst_ranks_per_node: kind / 2 % 2 + 1,
                same_node: kind % 2 == 1,
            };
            Route::new(&self.net, ctx)
        })
    }
}

/// What a send's cost depends on besides its length: the link terms of
/// its shape between its two seats, and whether they share a node.
#[derive(Debug, Clone, Copy)]
struct Route {
    link: LinkTerms,
    same_node: bool,
}

impl Route {
    fn new(net: &NetworkParams, ctx: TransferCtx) -> Self {
        Route {
            link: net.link_terms(&ctx),
            same_node: ctx.same_node,
        }
    }
}

/// What a receive completes from: the stamps its send put on the
/// message.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    departure: f64,
    arrival: f64,
    bytes: usize,
    class: MsgClass,
}

impl Stamp {
    /// What an unfilled slot holds.
    const EMPTY: Stamp = Stamp {
        departure: 0.0,
        arrival: 0.0,
        bytes: 0,
        class: MsgClass::Control,
    };
}

/// One rank's accounting: its clock, phase, per-destination message
/// counters and statistics. A live rank and a replayed one book every
/// operation through these methods, so they cannot disagree.
struct Books {
    rank: usize,
    clock: f64,
    phase: Phase,
    /// Per-destination message counters (seed the jitter RNG).
    counters: Vec<u64>,
    stats: RankStats,
}

impl Books {
    fn new(rank: usize, ranks: usize) -> Self {
        Books {
            rank,
            clock: 0.0,
            phase: Phase::Other,
            counters: vec![0; ranks],
            stats: RankStats::default(),
        }
    }

    /// Charges `seconds` at the calibration clock, scaled by this
    /// rank's seat and any straggler window open when the charge
    /// begins.
    ///
    /// The three booking methods are inlined into the replay loop, which
    /// is nothing but them: out of line they cost a replay ≈ 15 %.
    #[inline(always)]
    fn charge(&mut self, on: &Platform, seconds: f64) {
        let seat = &on.seats[self.rank];
        let straggle = if on.plan.stragglers.is_empty() {
            1.0
        } else {
            on.plan.straggle_factor_at(seat.node, self.clock)
        };
        let t = seconds * seat.compute_scale * straggle;
        self.clock += t;
        self.stats.bucket_mut(self.phase).book_comp(t);
    }

    /// Costs, stamps and counts a message of `len` values to `dst` on
    /// `route`. The network costs a message by its length alone, never
    /// by its values. Delivering it is the caller's.
    #[inline(always)]
    fn send(
        &mut self,
        on: &Platform,
        dst: usize,
        len: usize,
        class: MsgClass,
        route: &Route,
    ) -> (Stamp, SendOutcome) {
        let bytes = match class {
            MsgClass::Payload => (len * 8).max(1),
            MsgClass::Control => 1,
        };
        let counter = self.counters[dst];
        self.counters[dst] += 1;
        let mut rng = SplitMix64::for_message(on.config.seed, self.rank, dst, counter);
        let mut fault = if on.plan.is_zero() {
            LinkFault::clean()
        } else {
            on.plan
                .link_fault(self.rank, dst, self.clock, route.same_node)
        };
        if class == MsgClass::Control {
            // Control traffic (barrier hops, heartbeats) rides a
            // reliable channel: it may stall, it never disappears.
            // This keeps failure detection consistent across ranks.
            fault.give_up = false;
        }
        let t = on.net.transfer_on(bytes, &route.link, &mut rng, &fault);

        // Sender overhead is CPU time on the sending rank.
        self.clock += t.time.send_overhead;
        let bucket = self.stats.bucket_mut(self.phase);
        match class {
            MsgClass::Payload => bucket.book_comm(t.time.send_overhead),
            MsgClass::Control => bucket.book_sync(t.time.send_overhead),
        }
        let departure = self.clock;
        let arrival = departure + t.time.wire;
        self.stats.msgs_sent += 1;
        self.stats.retransmits += t.retransmits as u64;
        if !t.delivered {
            self.stats.msgs_lost += 1;
        }
        if class == MsgClass::Payload {
            self.stats.bytes_sent += bytes as u64;
        }
        if on.config.record_trace {
            self.stats.trace.push(crate::trace::TraceEvent::new(
                self.rank, dst, bytes, class, departure, arrival,
            ));
        }
        let stamp = Stamp {
            departure,
            arrival,
            bytes,
            class,
        };
        let outcome = SendOutcome {
            delivered: t.delivered,
            retransmits: t.retransmits,
            wire: t.time.wire,
        };
        (stamp, outcome)
    }

    /// Completes a receive of the message `stamp` describes: the clock
    /// waits for its arrival, then pays the receive overhead.
    #[inline(always)]
    fn recv(&mut self, on: &Platform, stamp: Stamp) {
        let completion = self.clock.max(stamp.arrival) + on.net.recv_overhead;
        let elapsed = completion - self.clock;
        self.clock = completion;
        let bucket = self.stats.bucket_mut(self.phase);
        match stamp.class {
            MsgClass::Payload => {
                bucket.book_comm(elapsed);
                let wire = (stamp.arrival - stamp.departure).max(1e-12);
                self.stats.throughput.push(ThroughputSample {
                    node: on.seats[self.rank].node,
                    bytes: stamp.bytes,
                    rate: stamp.bytes as f64 / wire,
                });
            }
            MsgClass::Control => bucket.book_sync(elapsed),
        }
    }

    /// Books the wait until `completion`, where a failure surfaces, as
    /// synchronization.
    fn wait_until(&mut self, completion: f64) {
        let elapsed = completion - self.clock;
        self.clock = completion;
        self.stats.bucket_mut(self.phase).book_sync(elapsed);
    }

    fn outcome(self) -> RankOutcome<()> {
        RankOutcome {
            rank: self.rank,
            result: (),
            finish_time: self.clock,
            stats: self.stats,
        }
    }
}

struct Shared {
    platform: Platform,
    /// Per-rank scheduled crash time, if any.
    crash_at: Vec<Option<f64>>,
    mailboxes: Vec<Mailbox>,
    /// Ranks that cannot post: those that have left their body
    /// (finished, crashed, panicked) plus those whose inbox is
    /// `waiting`. A set flag means nothing was posted since its owner
    /// looked, so when this reaches `ranks` nobody can ever post again.
    quiescent: AtomicUsize,
    /// Set once by whoever made `quiescent` reach `ranks`.
    stalled: AtomicBool,
}

impl Shared {
    /// The shared state of one run, after validating its inputs.
    fn new(config: ClusterConfig, plan: FaultPlan) -> Result<Arc<Shared>, SimError> {
        let platform = Platform::new(config, plan)?;
        Ok(Arc::new(Shared {
            crash_at: (0..config.ranks)
                .map(|r| platform.plan.crash_time(r))
                .collect(),
            platform,
            mailboxes: (0..config.ranks).map(|_| Mailbox::default()).collect(),
            quiescent: AtomicUsize::new(0),
            stalled: AtomicBool::new(false),
        }))
    }

    fn post(&self, dst: usize, msg: Msg) {
        let mb = &self.mailboxes[dst];
        let was_waiting = {
            let mut inbox = mb.lock();
            inbox.queue.push_back(msg);
            // Uncounted in the same critical section as the push: the
            // receiver cannot be both counted and about to find a
            // message.
            let was_waiting = std::mem::take(&mut inbox.waiting);
            if was_waiting {
                self.quiescent.fetch_sub(1, Ordering::SeqCst);
            }
            was_waiting
        };
        // Only a flagged receiver can be in `wait`, and the post that
        // clears the flag wakes it to rescan the whole queue — after
        // the unlock, so it does not wake into a held mutex.
        if was_waiting {
            mb.cv.notify_all();
        }
    }

    /// Blocks `rank` until `pick` takes something out of its inbox, or
    /// unwinds it with [`StallUnwind`] once no rank can move.
    fn take<R>(
        &self,
        rank: usize,
        tag: u64,
        mut pick: impl FnMut(&mut VecDeque<Msg>) -> Option<R>,
    ) -> R {
        let mb = &self.mailboxes[rank];
        let mut inbox = mb.lock();
        loop {
            if let Some(found) = pick(&mut inbox.queue) {
                return found;
            }
            // A spurious wake-up leaves the flag set and this rank counted.
            if !inbox.waiting {
                inbox.waiting = true;
                if self.count_quiescent() {
                    drop(inbox);
                    self.declare_stalled();
                    stall_unwind(rank, tag);
                }
            }
            if self.stalled.load(Ordering::SeqCst) {
                drop(inbox);
                stall_unwind(rank, tag);
            }
            inbox = mb
                .cv
                .wait(inbox)
                .expect("mailbox critical sections do not panic");
        }
    }

    /// Counts the caller as unable to post; true when that completes
    /// the count, i.e. the caller has proved that nobody can.
    fn count_quiescent(&self) -> bool {
        self.quiescent.fetch_add(1, Ordering::SeqCst) + 1 == self.platform.config.ranks
    }

    /// Counts a rank that has left its body (finished, crashed or
    /// panicked) and will never post again.
    fn retire(&self) {
        if self.count_quiescent() {
            self.declare_stalled();
        }
    }

    /// Wakes every blocked receive to unwind. Each wake-up is sent
    /// under the mailbox lock, so a rank between its look at `stalled`
    /// and its `wait` cannot miss it.
    fn declare_stalled(&self) {
        self.stalled.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            let _inbox = mb.lock();
            mb.cv.notify_all();
        }
    }
}

/// Takes the first delivered message from `src` with `tag` out of a
/// queue: FIFO per channel, tombstones left for `recv_result`.
fn take_delivered(q: &mut VecDeque<Msg>, src: usize, tag: u64) -> Option<Msg> {
    let pos = q
        .iter()
        .position(|m| m.src == src && m.tag == tag && !m.lost)?;
    q.remove(pos)
}

/// Unwinds the calling rank out of a receive nothing will ever
/// satisfy. Uses `resume_unwind` so the panic hook stays silent: a
/// stall is a diagnosed outcome, not a bug in the harness.
fn stall_unwind(rank: usize, tag: u64) -> ! {
    std::panic::resume_unwind(Box::new(StallUnwind {
        rank,
        step: tag >> 8,
    }));
}

/// Per-rank execution context handed to the rank body.
pub struct RankCtx {
    shared: Arc<Shared>,
    books: Books,
    /// This rank's script so far, when the run records one.
    script: Option<Script>,
}

impl RankCtx {
    fn new(rank: usize, shared: Arc<Shared>, record: bool) -> Self {
        RankCtx {
            books: Books::new(rank, shared.platform.config.ranks),
            shared,
            script: record.then(Vec::new),
        }
    }

    fn record(&mut self, op: Op) {
        if let Some(script) = &mut self.script {
            script.push(op);
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.books.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.shared.platform.config.ranks
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.platform.config
    }

    /// The network parameters of this cluster.
    pub fn net(&self) -> &NetworkParams {
        &self.shared.platform.net
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.books.clock
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &RankStats {
        &self.books.stats
    }

    /// Sets the phase subsequent time is charged to.
    pub fn set_phase(&mut self, phase: Phase) {
        self.record(Op::Phase(phase));
        self.books.phase = phase;
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.books.phase
    }

    /// Charges `seconds` of computation (expressed at the calibration
    /// clock; node clock scaling, SMP memory contention, and straggler
    /// slowdown are applied here). Straggler windows are judged at the
    /// clock value when the charge begins, mirroring how link
    /// degradations are judged at message departure.
    pub fn charge_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.record(Op::Compute(seconds));
        self.books.charge(&self.shared.platform, seconds);
    }

    /// If this rank is scheduled to crash and its clock has reached the
    /// crash time, deliver crash notices to every peer and unwind.
    ///
    /// Fault-tolerant drivers call this at safe points (step/epoch
    /// boundaries) so a rank never dies mid-collective. The unwind is
    /// caught by [`run_cluster_faulty`] and reported as a crashed
    /// outcome, not a panic.
    pub fn poll_crash(&mut self) {
        if let Some(t) = self.shared.crash_at[self.rank()] {
            if self.books.clock >= t {
                self.crash_now();
            }
        }
    }

    fn crash_now(&mut self) -> ! {
        let (rank, clock) = (self.rank(), self.books.clock);
        for dst in (0..self.size()).filter(|&dst| dst != rank) {
            self.shared.post(
                dst,
                Msg {
                    src: rank,
                    tag: CRASH_TAG,
                    data: Vec::new(),
                    bytes: 0,
                    class: MsgClass::Control,
                    departure: clock,
                    arrival: clock,
                    lost: false,
                },
            );
        }
        // resume_unwind skips the panic hook: a simulated crash is not
        // a bug and must not spam stderr with backtraces.
        std::panic::resume_unwind(Box::new(CrashUnwind));
    }

    /// Sends a message. Eager/buffered semantics: the sender only pays
    /// its CPU overhead; the wire time determines the arrival stamp.
    ///
    /// `shape` describes the enclosing operation (endpoint flow
    /// contention and participant count), driving the TCP congestion,
    /// jitter and tiny-message models. Under a lossy [`FaultPlan`] the
    /// transfer is re-costed through the retransmission model; when the
    /// transport gives up, a tombstone is enqueued instead (the
    /// receiver surfaces it as [`CommError::Timeout`] via
    /// [`recv_result`](Self::recv_result)).
    pub fn send(
        &mut self,
        dst: usize,
        tag: u64,
        data: Vec<f64>,
        class: MsgClass,
        shape: OpShape,
    ) -> SendOutcome {
        assert!(dst < self.size(), "invalid destination {dst}");
        assert_ne!(dst, self.rank(), "self-send not supported");
        debug_assert_ne!(tag, CRASH_TAG, "CRASH_TAG is reserved");
        let len = data.len();
        self.record(Op::Send {
            dst,
            tag,
            len,
            class,
            shape,
        });
        let on = &self.shared.platform;
        let route = on.route(self.books.rank, dst, shape);
        let (stamp, outcome) = self.books.send(on, dst, len, class, &route);
        let msg = Msg {
            src: self.rank(),
            tag,
            data,
            bytes: stamp.bytes,
            class,
            departure: stamp.departure,
            arrival: stamp.arrival,
            lost: !outcome.delivered,
        };
        self.shared.post(dst, msg);
        outcome
    }

    /// Blocking receive of the next message from `src` with `tag`
    /// (FIFO per channel). Advances the virtual clock to the completion
    /// time and books the elapsed time by message class.
    ///
    /// This path is infallible and ignores tombstones and crash
    /// notices; fault-aware code must use
    /// [`recv_result`](Self::recv_result) instead, or it will block
    /// forever on a lost message or dead peer.
    pub fn recv(&mut self, src: usize, tag: u64) -> Msg {
        assert!(src < self.size(), "invalid source {src}");
        assert_ne!(src, self.rank(), "self-receive not supported");
        let msg = self
            .shared
            .take(self.rank(), tag, |q| take_delivered(q, src, tag));
        self.complete_recv(msg)
    }

    /// Fault-aware blocking receive: like [`recv`](Self::recv), but a
    /// tombstone (the sender's transport gave up) surfaces as
    /// [`CommError::Timeout`] and a crashed peer surfaces as
    /// [`CommError::PeerDead`], after the receiver's watchdog period.
    pub fn recv_result(&mut self, src: usize, tag: u64) -> Result<Msg, CommError> {
        assert!(src < self.size(), "invalid source {src}");
        assert_ne!(src, self.rank(), "self-receive not supported");
        enum Got {
            Delivered(Msg),
            Tombstone(Msg),
            Dead(f64),
        }
        let got = self.shared.take(self.rank(), tag, |q| {
            // FIFO per channel: take the first matching message,
            // delivered or tombstone, in arrival order.
            if let Some(pos) = q.iter().position(|m| m.src == src && m.tag == tag) {
                let m = q.remove(pos)?;
                return Some(if m.lost {
                    Got::Tombstone(m)
                } else {
                    Got::Delivered(m)
                });
            }
            // No matching message: a crash notice from the peer means
            // none will ever come. The notice is *not* consumed — every
            // later receive must see it too.
            q.iter()
                .find(|m| m.src == src && m.tag == CRASH_TAG)
                .map(|m| Got::Dead(m.arrival))
        });
        let watchdog = self.shared.platform.plan.watchdog_timeout;
        match got {
            Got::Delivered(msg) => Ok(self.complete_recv(msg)),
            Got::Tombstone(msg) => {
                // The receiver learns of the loss one watchdog period
                // after the point the message could last have arrived.
                let completion = self.books.clock.max(msg.arrival) + watchdog;
                self.books.wait_until(completion);
                Err(CommError::Timeout {
                    peer: src,
                    tag,
                    at: completion,
                })
            }
            Got::Dead(at) => {
                let completion = self.books.clock.max(at) + watchdog;
                self.books.wait_until(completion);
                Err(CommError::PeerDead {
                    peer: src,
                    at: completion,
                })
            }
        }
    }

    fn complete_recv(&mut self, msg: Msg) -> Msg {
        self.record(Op::Recv {
            src: msg.src,
            tag: msg.tag,
        });
        let stamp = Stamp {
            departure: msg.departure,
            arrival: msg.arrival,
            bytes: msg.bytes,
            class: msg.class,
        };
        self.books.recv(&self.shared.platform, stamp);
        msg
    }
}

/// Result of one rank's execution.
#[derive(Debug, Clone)]
pub struct RankOutcome<T> {
    /// Rank id.
    pub rank: usize,
    /// Value returned by the rank body.
    pub result: T,
    /// Timing statistics.
    pub stats: RankStats,
    /// Final virtual clock (the rank's elapsed virtual time).
    pub finish_time: f64,
}

/// Result of one rank's execution under fault injection.
#[derive(Debug, Clone)]
pub struct FaultyOutcome<T> {
    /// Rank id.
    pub rank: usize,
    /// Value returned by the rank body; `None` when the rank crashed.
    pub result: Option<T>,
    /// True when the rank died through a scheduled [`FaultPlan`] crash.
    pub crashed: bool,
    /// Timing statistics up to completion or crash.
    pub stats: RankStats,
    /// Final virtual clock (at completion or crash).
    pub finish_time: f64,
}

impl<T> FaultyOutcome<T> {
    /// True when the rank ran to completion.
    pub fn survived(&self) -> bool {
        !self.crashed
    }
}

/// Per-rank failure channel of the join loop: a stalled receive is a
/// diagnosed outcome, a panic is a bug. Kept separate so a genuine
/// panic is reported in preference to the stalls it causes on peers.
enum StallOrPanic {
    Stalled(StallUnwind),
    Panic(String),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `body` on every rank of the configured virtual cluster and
/// returns the outcomes ordered by rank.
///
/// The body executes on real threads with real shared-nothing message
/// passing; virtual time is deterministic for a fixed configuration.
///
/// Panics on an invalid configuration or a panicking rank body (with
/// the typed [`SimError`] message naming the offending rank); use
/// `try_run_cluster` to handle those as values.
pub fn run_cluster<T, F>(config: ClusterConfig, body: F) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    match try_run_cluster(config, body) {
        Ok(outcomes) => outcomes,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`run_cluster`]: configuration problems and
/// panicking rank bodies come back as typed [`SimError`]s naming the
/// offending rank instead of panics.
pub(crate) fn try_run_cluster<T, F>(
    config: ClusterConfig,
    body: F,
) -> Result<Vec<RankOutcome<T>>, SimError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let outcomes = run_cluster_faulty(config, FaultPlan::none(), body)?;
    Ok(outcomes
        .into_iter()
        .map(|o| RankOutcome {
            rank: o.rank,
            result: o.result.expect("no crashes under an empty fault plan"),
            stats: o.stats,
            finish_time: o.finish_time,
        })
        .collect())
}

/// Runs `body` on every rank under a [`FaultPlan`].
///
/// Ranks scheduled to crash unwind at their next
/// [`poll_crash`](RankCtx::poll_crash) point and are reported as
/// crashed outcomes (with the statistics collected up to the crash);
/// a *genuine* panic in the body is reported as
/// [`SimError::RankPanicked`] naming the rank.
///
/// With [`FaultPlan::none`] this is exactly [`run_cluster`]: same
/// random draws, bit-identical virtual times.
pub fn run_cluster_faulty<T, F>(
    config: ClusterConfig,
    plan: FaultPlan,
    body: F,
) -> Result<Vec<FaultyOutcome<T>>, SimError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let ranks = run_threads(config, plan, false, body)?;
    Ok(ranks.into_iter().map(|(outcome, _)| outcome).collect())
}

/// [`run_cluster`] that also returns every rank's [`Script`]: each
/// operation the rank issued to the engine, in order, with compute
/// charges in calibration seconds. [`link`] orders those scripts into a
/// [`Schedule`], which [replays](Schedule::replay) on any platform to the
/// virtual times a live run there would get.
pub fn run_cluster_recorded<T, F>(
    config: ClusterConfig,
    body: F,
) -> (Vec<RankOutcome<T>>, Vec<Script>)
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let ranks = match run_threads(config, FaultPlan::none(), true, body) {
        Ok(ranks) => ranks,
        Err(e) => panic!("{e}"),
    };
    ranks
        .into_iter()
        .map(|(o, script)| {
            let outcome = RankOutcome {
                rank: o.rank,
                result: o.result.expect("no crashes under an empty fault plan"),
                stats: o.stats,
                finish_time: o.finish_time,
            };
            (outcome, script.expect("a recording rank keeps its script"))
        })
        .unzip()
}

/// One step of a [`Schedule`]: an operation of `rank`'s script, with
/// what its replay needs and no more. A send names its destination, its
/// length, its entry in the schedule's shape table and the slot its
/// stamps wait in; a receive names the slot it empties. No tags: the
/// slot pairs a receive with its send. 16 bytes: a replay streams
/// every step once per platform.
#[derive(Debug, Clone, Copy)]
enum Step {
    Phase {
        rank: u16,
        phase: Phase,
    },
    Compute {
        rank: u16,
        seconds: f64,
    },
    Send {
        rank: u16,
        dst: u16,
        shape: u8,
        slot: u32,
        len: u32,
    },
    Recv {
        rank: u16,
        slot: u32,
    },
}

/// Every rank's [`Script`], [linked](link) once into one order that keeps
/// each rank's program order and puts every send before its receive.
/// [`Self::replay`] costs it on a platform in one pass.
#[derive(Debug)]
pub struct Schedule {
    ranks: usize,
    steps: Vec<Step>,
    /// The distinct shapes and classes of the sends, interned.
    shapes: Vec<(OpShape, MsgClass)>,
    /// Payload messages each rank receives: the throughput samples its
    /// replay books.
    samples: Vec<usize>,
    /// Messages in flight at once, at most: each receive frees its
    /// slot for a later send.
    slots: usize,
}

/// `value` as the type of its step field, or the typed error that names
/// the field it does not fit.
fn fit<T: TryFrom<usize>>(field: &'static str, value: usize) -> Result<T, SimError> {
    T::try_from(value).map_err(|_| SimError::DoesNotFit { field, value })
}

/// Links every rank's recorded [`Script`] into a [`Schedule`]: lowest
/// rank first, each until it ends or blocks in a receive whose message
/// is not sent yet, round after round until no rank moves, over plain
/// per-rank queues of `(src, tag, slot)`. Each receive takes the first
/// queued message of its channel and names the slot its send filled.
/// Scripts that cannot all finish return the [`SimError::Stalled`] the
/// threaded engine would: the lowest rank left blocked and the epoch it
/// waits in. A rank, slot, shape index or length too large for its
/// step field is a [`SimError::DoesNotFit`].
pub fn link(scripts: &[Script]) -> Result<Schedule, SimError> {
    let ranks = scripts.len();
    let mut next = vec![0; ranks];
    let mut queued: Vec<VecDeque<(usize, u64, u32)>> = vec![VecDeque::new(); ranks];
    let mut free = Vec::new();
    let mut slots = 0;
    let mut shapes = Vec::new();
    let mut samples = vec![0; ranks];
    let mut steps = Vec::with_capacity(scripts.iter().map(Vec::len).sum());
    let mut moved = true;
    while std::mem::take(&mut moved) {
        for (rank, script) in scripts.iter().enumerate() {
            let me: u16 = fit("rank", rank)?;
            while let Some(&op) = script.get(next[rank]) {
                steps.push(match op {
                    Op::Phase(phase) => Step::Phase { rank: me, phase },
                    Op::Compute(seconds) => Step::Compute { rank: me, seconds },
                    Op::Send {
                        dst,
                        tag,
                        len,
                        class,
                        shape,
                    } => {
                        let slot = match free.pop() {
                            Some(slot) => slot,
                            None => {
                                slots += 1;
                                fit("slot", slots - 1)?
                            }
                        };
                        queued[dst].push_back((rank, tag, slot));
                        samples[dst] += usize::from(class == MsgClass::Payload);
                        let interned = match shapes.iter().position(|&s| s == (shape, class)) {
                            Some(i) => i,
                            None => {
                                shapes.push((shape, class));
                                shapes.len() - 1
                            }
                        };
                        Step::Send {
                            rank: me,
                            dst: fit("rank", dst)?,
                            shape: fit("shape", interned)?,
                            slot,
                            len: fit("length", len)?,
                        }
                    }
                    Op::Recv { src, tag } => {
                        let queue = &mut queued[rank];
                        let Some(at) = queue.iter().position(|&(s, t, _)| (s, t) == (src, tag))
                        else {
                            break;
                        };
                        let (_, _, slot) = queue.remove(at).expect("position is in the queue");
                        free.push(slot);
                        Step::Recv { rank: me, slot }
                    }
                });
                next[rank] += 1;
                moved = true;
            }
        }
    }
    for (rank, script) in scripts.iter().enumerate() {
        if let Some(&Op::Recv { tag, .. }) = script.get(next[rank]) {
            return Err(SimError::Stalled {
                rank,
                step: tag >> 8,
            });
        }
    }
    Ok(Schedule {
        ranks,
        steps,
        shapes,
        samples,
        slots,
    })
}

impl Schedule {
    /// The most messages in flight at once: the size of the slot table
    /// a replay holds.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Heap bytes the schedule holds: the capacity of its steps, its
    /// shape table and its sample counts.
    pub fn bytes(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<Step>()
            + self.shapes.capacity() * std::mem::size_of::<(OpShape, MsgClass)>()
            + self.samples.capacity() * std::mem::size_of::<usize>()
    }

    /// Costs the schedule on `config`'s platform: each step, in the
    /// linked order, through the books a live rank's operation goes
    /// through — the same compute charge, send costing and receive
    /// completion — so the outcomes are the live run's, bit for bit. A
    /// send's stamps wait in its slot for its receive.
    pub fn replay(&self, config: ClusterConfig) -> Result<Vec<RankOutcome<()>>, SimError> {
        if self.ranks != config.ranks {
            return Err(SimError::InvalidConfig(format!(
                "a schedule of {} ranks replayed on {}",
                self.ranks, config.ranks
            )));
        }
        let on = Platform::new(config, FaultPlan::none())?;
        // A cpus_per_node of 1 or 2 leaves eight kinds of seat pair, so
        // each shape's link terms are computed eight times, not per send.
        let routes: Vec<Route> = (self.shapes.iter())
            .flat_map(|&(shape, _)| on.routes(shape))
            .collect();
        let mut books: Vec<Books> = (0..self.ranks)
            .map(|rank| {
                let mut books = Books::new(rank, self.ranks);
                books.stats.throughput.reserve_exact(self.samples[rank]);
                books
            })
            .collect();
        let mut slots = vec![Stamp::EMPTY; self.slots];
        for &step in &self.steps {
            match step {
                Step::Phase { rank, phase } => books[usize::from(rank)].phase = phase,
                Step::Compute { rank, seconds } => books[usize::from(rank)].charge(&on, seconds),
                Step::Send {
                    rank,
                    dst,
                    shape,
                    slot,
                    len,
                } => {
                    let (rank, dst, shape) =
                        (usize::from(rank), usize::from(dst), usize::from(shape));
                    let route = &routes[shape * 8 + on.pair_kind(rank, dst)];
                    let class = self.shapes[shape].1;
                    let (stamp, _) = books[rank].send(&on, dst, len as usize, class, route);
                    slots[slot as usize] = stamp;
                }
                Step::Recv { rank, slot } => {
                    books[usize::from(rank)].recv(&on, slots[slot as usize]);
                }
            }
        }
        Ok(books.into_iter().map(Books::outcome).collect())
    }
}

/// [`run_cluster_faulty`], each rank's script beside its outcome when
/// `record` is set.
#[allow(clippy::type_complexity)]
fn run_threads<T, F>(
    config: ClusterConfig,
    plan: FaultPlan,
    record: bool,
    body: F,
) -> Result<Vec<(FaultyOutcome<T>, Option<Script>)>, SimError>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    let shared = Shared::new(config, plan)?;

    let mut outcomes: Vec<Option<_>> = (0..config.ranks).map(|_| None).collect();
    let mut panic_error: Option<SimError> = None;
    let mut stall_error: Option<SimError> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.ranks);
        for rank in 0..config.ranks {
            let shared = Arc::clone(&shared);
            let body = &body;
            handles.push(scope.spawn(move || {
                let mut ctx = RankCtx::new(rank, shared, record);
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                // A stalled rank was counted when its receive blocked.
                if !matches!(&result, Err(payload) if payload.is::<StallUnwind>()) {
                    ctx.shared.retire();
                }
                let outcome = |result, crashed| FaultyOutcome {
                    rank,
                    result,
                    crashed,
                    stats: ctx.books.stats,
                    finish_time: ctx.books.clock,
                };
                match result {
                    Ok(value) => Ok((outcome(Some(value), false), ctx.script)),
                    Err(payload) if payload.is::<CrashUnwind>() => {
                        Ok((outcome(None, true), ctx.script))
                    }
                    Err(payload) => match payload.downcast::<StallUnwind>() {
                        Ok(stall) => Err(StallOrPanic::Stalled(*stall)),
                        Err(payload) => Err(StallOrPanic::Panic(panic_message(payload.as_ref()))),
                    },
                }
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(outcome)) => outcomes[rank] = Some(outcome),
                Ok(Err(StallOrPanic::Stalled(s))) => {
                    stall_error.get_or_insert(SimError::Stalled {
                        rank: s.rank,
                        step: s.step,
                    });
                }
                Ok(Err(StallOrPanic::Panic(message))) => {
                    panic_error.get_or_insert(SimError::RankPanicked { rank, message });
                }
                Err(payload) => {
                    panic_error.get_or_insert(SimError::RankPanicked {
                        rank,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    });
    // A genuine panic outranks the stalls it strands peers in.
    if let Some(e) = panic_error.or(stall_error) {
        return Err(e);
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("all ranks joined"))
        .collect())
}

/// Wall-clock time of a run: the maximum finish time over ranks.
pub fn elapsed_time<T>(outcomes: &[RankOutcome<T>]) -> f64 {
    outcomes.iter().map(|o| o.finish_time).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetworkKind;

    #[test]
    fn single_rank_compute_only() {
        let cfg = ClusterConfig::uni(1, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            ctx.set_phase(Phase::Classic);
            ctx.charge_compute(0.5);
            ctx.now()
        });
        assert_eq!(out.len(), 1);
        assert!((out[0].finish_time - 0.5).abs() < 1e-12);
        assert!((out[0].stats.bucket(Phase::Classic).comp - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_advances_both_clocks() {
        let cfg = ClusterConfig::uni(2, NetworkKind::MyrinetGm);
        let out = run_cluster(cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0, 2.0], MsgClass::Payload, OpShape::new(1, 1));
                let m = ctx.recv(1, 2);
                assert_eq!(m.data, vec![3.0]);
            } else {
                let m = ctx.recv(0, 1);
                assert_eq!(m.data, vec![1.0, 2.0]);
                ctx.send(0, 2, vec![3.0], MsgClass::Payload, OpShape::new(1, 1));
            }
            ctx.now()
        });
        // Round trip took at least two latencies.
        let lat = NetworkKind::MyrinetGm.params().latency;
        assert!(out[0].finish_time > 2.0 * lat * 0.5);
        assert!(out[1].finish_time > lat * 0.5);
        // Receiver recorded a throughput sample.
        assert_eq!(out[1].stats.throughput.len(), 1);
        assert_eq!(out[0].stats.throughput.len(), 1);
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let run = || {
            run_cluster(cfg, |ctx| {
                let p = ctx.size();
                ctx.set_phase(Phase::Pme);
                ctx.charge_compute(0.001 * (ctx.rank() + 1) as f64);
                // All-to-all-ish exchange.
                for other in 0..p {
                    if other == ctx.rank() {
                        continue;
                    }
                    ctx.send(
                        other,
                        7,
                        vec![ctx.rank() as f64; 1000],
                        MsgClass::Payload,
                        OpShape::new(p - 1, p),
                    );
                }
                for other in 0..p {
                    if other == ctx.rank() {
                        continue;
                    }
                    ctx.recv(other, 7);
                }
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.finish_time, y.finish_time, "rank {}", x.rank);
            assert_eq!(x.stats.total().comm, y.stats.total().comm);
        }
    }

    #[test]
    fn zero_plan_faulty_run_is_bit_identical_to_run_cluster() {
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let workload = |ctx: &mut RankCtx| {
            let p = ctx.size();
            ctx.set_phase(Phase::Pme);
            ctx.charge_compute(0.001 * (ctx.rank() + 1) as f64);
            for other in 0..p {
                if other == ctx.rank() {
                    continue;
                }
                ctx.send(
                    other,
                    7,
                    vec![ctx.rank() as f64; 1000],
                    MsgClass::Payload,
                    OpShape::new(p - 1, p),
                );
            }
            for other in 0..p {
                if other == ctx.rank() {
                    continue;
                }
                ctx.recv(other, 7);
            }
            ctx.now()
        };
        let plain = run_cluster(cfg, workload);
        let faulty = run_cluster_faulty(cfg, FaultPlan::none(), workload).unwrap();
        for (a, b) in plain.iter().zip(&faulty) {
            assert!(b.survived());
            assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
            assert_eq!(a.stats.total(), b.stats.total());
            assert_eq!(b.stats.retransmits, 0);
            assert_eq!(b.stats.msgs_lost, 0);
        }
    }

    #[test]
    fn seed_changes_jitter() {
        let mut cfg = ClusterConfig::uni(2, NetworkKind::TcpGigE);
        let run = |cfg: ClusterConfig| {
            run_cluster(cfg, |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(
                        1,
                        1,
                        vec![0.0; 50_000],
                        MsgClass::Payload,
                        OpShape::new(1, 1),
                    );
                } else {
                    ctx.recv(0, 1);
                }
                ctx.now()
            })[1]
                .finish_time
        };
        let t1 = run(cfg);
        cfg.seed = 999;
        let t2 = run(cfg);
        assert_ne!(t1, t2);
    }

    #[test]
    fn control_messages_book_sync_time() {
        let cfg = ClusterConfig::uni(2, NetworkKind::TcpGigE);
        let out = run_cluster(cfg, |ctx| {
            ctx.set_phase(Phase::Classic);
            if ctx.rank() == 0 {
                ctx.send(1, 1, Vec::new(), MsgClass::Control, OpShape::new(1, 1));
            } else {
                ctx.recv(0, 1);
            }
        });
        let receiver = &out[1].stats;
        assert!(receiver.bucket(Phase::Classic).sync > 0.0);
        assert_eq!(receiver.bucket(Phase::Classic).comm, 0.0);
        assert!(
            receiver.throughput.is_empty(),
            "control messages are not throughput samples"
        );
    }

    #[test]
    fn fifo_order_per_channel() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let out = run_cluster(cfg, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, 42, vec![i as f64], MsgClass::Payload, OpShape::new(1, 1));
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| ctx.recv(0, 42).data[0])
                    .collect::<Vec<f64>>()
            }
        });
        assert_eq!(
            out[1].result,
            (0..10).map(|i| i as f64).collect::<Vec<f64>>()
        );
    }

    #[test]
    fn receiver_waits_for_late_sender() {
        let cfg = ClusterConfig::uni(2, NetworkKind::MyrinetGm);
        let out = run_cluster(cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.charge_compute(1.0); // sender is busy for 1 s
                ctx.send(1, 1, vec![1.0], MsgClass::Payload, OpShape::new(1, 1));
            } else {
                ctx.recv(0, 1); // receiver posts immediately
            }
            ctx.now()
        });
        // Receiver's clock must include the 1 s wait.
        assert!(out[1].finish_time > 1.0);
        assert!(out[1].stats.total().comm > 1.0);
    }

    #[test]
    fn trace_recording_captures_messages() {
        let mut cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        cfg.record_trace = true;
        let out = run_cluster(cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0; 100], MsgClass::Payload, OpShape::p2p());
                ctx.send(1, 2, Vec::new(), MsgClass::Control, OpShape::p2p());
            } else {
                ctx.recv(0, 1);
                ctx.recv(0, 2);
            }
        });
        let trace = &out[0].stats.trace;
        assert_eq!(trace.len(), 2);
        assert!(trace[0].payload);
        assert!(!trace[1].payload);
        assert!(trace[0].arrival > trace[0].departure);
        assert_eq!(trace[0].bytes, 800);
        // Disabled by default.
        let cfg2 = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let out2 = run_cluster(cfg2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0], MsgClass::Payload, OpShape::p2p());
            } else {
                ctx.recv(0, 1);
            }
        });
        assert!(out2[0].stats.trace.is_empty());
    }

    /// A workload with every kind of operation: phases, charges, a flat
    /// incast of uneven payloads, a control ring and a pairwise exchange.
    fn mixed_workload(ctx: &mut RankCtx) -> f64 {
        let (p, r) = (ctx.size(), ctx.rank());
        ctx.set_phase(Phase::Classic);
        ctx.charge_compute(1e-4 * (r + 1) as f64);
        if r == 0 {
            for src in 1..p {
                ctx.recv(src, 1 << 8);
            }
        } else {
            let data = vec![0.5; 100 * r];
            ctx.send(0, 1 << 8, data, MsgClass::Payload, OpShape::new(p - 1, p));
        }
        ctx.set_phase(Phase::Pme);
        for k in 1..p {
            let tag = 2 << 8 | (k as u64) << 40;
            let shape = OpShape::repeated(1, p);
            ctx.send((r + k) % p, tag, Vec::new(), MsgClass::Control, shape);
            ctx.recv((r + p - k) % p, tag);
            let tag = 3 << 8 | (k as u64) << 40;
            let data = vec![1.0; 4096 + k];
            ctx.send(
                (r + k) % p,
                tag,
                data,
                MsgClass::Payload,
                OpShape::new(1, p),
            );
            ctx.recv((r + p - k) % p, tag);
            ctx.charge_compute(4e-9 * 4096.0);
        }
        ctx.now()
    }

    /// Everything a rank's outcome says about time, bit for bit.
    fn timing_bits(finish: f64, s: &RankStats) -> Vec<u64> {
        let mut bits = vec![finish.to_bits(), s.msgs_sent, s.bytes_sent, s.retransmits];
        for ph in Phase::ALL {
            let b = s.bucket(ph);
            bits.extend([b.comp.to_bits(), b.comm.to_bits(), b.sync.to_bits()]);
        }
        for t in &s.throughput {
            bits.extend([t.node as u64, t.bytes as u64, t.rate.to_bits()]);
        }
        for e in &s.trace {
            let ends = [e.src as u64, e.dst as u64, e.bytes as u64, e.payload as u64];
            bits.extend(
                ends.into_iter()
                    .chain([e.departure.to_bits(), e.arrival.to_bits()]),
            );
        }
        bits
    }

    /// Scripts recorded on one platform, linked once and replayed on one
    /// thread on every other (network, CPUs per node, jitter seed), give
    /// each platform's live outcomes: clocks, phase buckets, counters,
    /// throughput samples and traced messages, bit for bit. A replay
    /// reserves each rank's throughput samples at their exact count.
    #[test]
    fn a_replayed_script_is_the_live_run_on_every_platform() {
        for p in [1usize, 2, 3, 5] {
            let (recorded, scripts) =
                run_cluster_recorded(ClusterConfig::uni(p, NetworkKind::TcpGigE), mixed_workload);
            assert!(scripts.iter().all(|s| !s.is_empty()));
            let schedule = link(&scripts).expect("complete scripts link");
            let ops: usize = scripts.iter().map(Vec::len).sum();
            assert_eq!(schedule.steps.len(), ops);
            assert_eq!(schedule.steps.capacity(), ops, "linked at its exact size");
            let plain = run_cluster(ClusterConfig::uni(p, NetworkKind::TcpGigE), mixed_workload);
            for (r, l) in recorded.iter().zip(&plain) {
                assert_eq!(
                    timing_bits(r.finish_time, &r.stats),
                    timing_bits(l.finish_time, &l.stats)
                );
            }
            for network in [
                NetworkKind::TcpGigE,
                NetworkKind::ScoreGigE,
                NetworkKind::MyrinetGm,
            ] {
                for dual in [false, true] {
                    let mut cfg = ClusterConfig::uni(p, network);
                    cfg.cpus_per_node = 1 + usize::from(dual);
                    cfg.seed = 7 + p as u64;
                    cfg.record_trace = true;
                    let live = run_cluster(cfg, mixed_workload);
                    let replayed = schedule.replay(cfg).expect("a linked schedule replays");
                    for (l, r) in live.iter().zip(&replayed) {
                        assert!(p == 1 || !l.stats.trace.is_empty());
                        let samples = &r.stats.throughput;
                        assert_eq!(samples.capacity(), samples.len(), "reserved exactly");
                        assert_eq!(
                            timing_bits(r.finish_time, &r.stats),
                            timing_bits(l.finish_time, &l.stats),
                            "p={p} {network:?} dual={dual} rank {}",
                            l.rank
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_schedule_on_another_rank_count_is_a_typed_error() {
        let cfg = ClusterConfig::uni(3, NetworkKind::TcpGigE);
        let (_, scripts) = run_cluster_recorded(cfg, mixed_workload);
        let schedule = link(&scripts).expect("complete scripts link");
        match schedule.replay(ClusterConfig::uni(2, NetworkKind::TcpGigE)) {
            Err(SimError::InvalidConfig(why)) => {
                assert_eq!(why, "a schedule of 3 ranks replayed on 2");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// A step is 16 bytes, and a rank, shape index or length too large
    /// for its field is a typed error naming the field, not a
    /// truncation. (A slot goes through the same check; 2^32 messages
    /// in flight are out of a test's reach.)
    #[test]
    fn a_step_is_16_bytes_and_link_refuses_what_does_not_fit() {
        assert_eq!(std::mem::size_of::<Step>(), 16);
        let send = |dst, len, shape| Op::Send {
            dst,
            tag: 1 << 8,
            len,
            class: MsgClass::Payload,
            shape,
        };
        let recv = |src| Op::Recv { src, tag: 1 << 8 };
        let too_long = vec![vec![send(1, 1 << 32, OpShape::p2p())], vec![recv(0)]];
        let err = link(&too_long).expect_err("a length of 2^32 values");
        assert_eq!(
            err,
            SimError::DoesNotFit {
                field: "length",
                value: 1 << 32
            }
        );
        assert_eq!(
            err.to_string(),
            "a schedule step cannot hold length 4294967296"
        );
        let fits = vec![vec![send(1, (1 << 32) - 1, OpShape::p2p())], vec![recv(0)]];
        assert!(link(&fits).is_ok());

        let shapes = (2..=258).map(|n| send(1, 1, OpShape::new(1, n)));
        let many_shapes = vec![shapes.collect(), vec![recv(0); 257]];
        assert_eq!(
            link(&many_shapes).err(),
            Some(SimError::DoesNotFit {
                field: "shape",
                value: 256
            })
        );
        let mut many_ranks = vec![Script::new(); 1 << 16];
        assert!(link(&many_ranks).is_ok(), "ranks 0..2^16 are named");
        many_ranks.push(Script::new());
        assert_eq!(
            link(&many_ranks).err(),
            Some(SimError::DoesNotFit {
                field: "rank",
                value: 1 << 16
            })
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let cfg = ClusterConfig::uni(0, NetworkKind::TcpGigE);
        match try_run_cluster(cfg, |_ctx| ()) {
            Err(SimError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_fault_plan_is_a_typed_error() {
        let cfg = ClusterConfig::uni(2, NetworkKind::TcpGigE);
        let plan = FaultPlan::none().with_crash(7, 1.0);
        match run_cluster_faulty(cfg, plan, |_ctx| ()) {
            Err(SimError::InvalidFaultPlan(_)) => {}
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_is_a_typed_error_naming_the_rank() {
        let cfg = ClusterConfig::uni(2, NetworkKind::TcpGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate test panic");
            }
        });
        match result {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate test panic"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn stalled_receive_surfaces_typed_error() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        // Nobody ever sends tag 9<<8, and rank 0 finishes while rank 1
        // waits on it: the run must end in a typed error, at once.
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            if ctx.rank() == 1 {
                let _ = ctx.recv(0, 9 << 8);
            }
        });
        let err = result.expect_err("rank 1 can never be served");
        assert_eq!(err, SimError::Stalled { rank: 1, step: 9 });
        assert_eq!(
            err.to_string(),
            "rank 1 stalled in epoch 9: no rank can move"
        );
    }

    #[test]
    fn a_cycle_of_receives_names_the_lowest_blocked_rank() {
        let cfg = ClusterConfig::uni(3, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            let from = (ctx.rank() + 1) % ctx.size();
            let _ = ctx.recv_result(from, (ctx.rank() as u64 + 4) << 8);
        });
        assert_eq!(result.err(), Some(SimError::Stalled { rank: 0, step: 4 }));
    }

    #[test]
    fn a_message_for_another_tag_wakes_but_does_not_save_the_receiver() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1 << 8, vec![1.0], MsgClass::Payload, OpShape::p2p());
            } else {
                let _ = ctx.recv(0, 2 << 8);
            }
        });
        assert_eq!(result.err(), Some(SimError::Stalled { rank: 1, step: 2 }));
    }

    #[test]
    fn a_slow_host_thread_is_not_a_stall() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        // The sender dawdles in *host* time, which the engine cannot
        // see: its receiver waits, and the virtual clocks do not move.
        let out = run_cluster(cfg, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(300));
                ctx.send(1, 5, vec![1.0], MsgClass::Payload, OpShape::p2p());
            } else {
                ctx.recv(0, 5);
            }
            ctx.now()
        });
        assert!(out[1].result > 0.0 && out[1].result < 0.01);
    }

    #[test]
    fn a_panic_outranks_the_stalls_it_strands() {
        let cfg = ClusterConfig::uni(3, NetworkKind::ScoreGigE);
        let result = run_cluster_faulty(cfg, FaultPlan::none(), |ctx| {
            if ctx.rank() == 2 {
                panic!("deliberate test panic");
            }
            let _ = ctx.recv(2, 7 << 8);
        });
        match result {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 2);
                assert!(message.contains("deliberate test panic"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn straggler_slows_only_its_node() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let plan = FaultPlan::none().with_straggler(1, 3.0);
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            ctx.charge_compute(1.0);
            ctx.now()
        })
        .unwrap();
        let t0 = out[0].finish_time;
        let t1 = out[1].finish_time;
        assert!((t1 / t0 - 3.0).abs() < 1e-9, "{t0} vs {t1}");
    }

    #[test]
    fn transient_straggler_slows_only_inside_its_window() {
        let cfg = ClusterConfig::uni(1, NetworkKind::ScoreGigE);
        let plan = FaultPlan::none().with_straggler_window(0, 4.0, 0.5, 1.0);
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            ctx.charge_compute(0.25); // judged at t=0.00: nominal
            ctx.charge_compute(0.25); // judged at t=0.25: nominal
            ctx.charge_compute(0.10); // judged at t=0.50: 4x -> 0.4
            ctx.charge_compute(0.05); // judged at t=0.90: 4x -> 0.2
            ctx.charge_compute(0.10); // judged at t=1.10: nominal again
            ctx.now()
        })
        .unwrap();
        assert!(
            (out[0].finish_time - 1.2).abs() < 1e-12,
            "{}",
            out[0].finish_time
        );
    }

    #[test]
    fn crash_surfaces_peer_dead_and_crashed_outcome() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let plan = FaultPlan::none().with_crash(1, 0.5);
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            ctx.charge_compute(1.0);
            ctx.poll_crash(); // rank 1 dies here (clock 1.0 >= 0.5)
            if ctx.rank() == 0 {
                match ctx.recv_result(1, 9) {
                    Err(CommError::PeerDead { peer, at }) => {
                        assert_eq!(peer, 1);
                        assert!(at >= 1.0);
                    }
                    other => panic!("expected PeerDead, got {other:?}"),
                }
            }
            ctx.now()
        })
        .unwrap();
        assert!(out[0].survived());
        assert!(out[1].crashed);
        assert!(out[1].result.is_none());
        assert!((out[1].finish_time - 1.0).abs() < 1e-12);
        // A second receive from the dead peer fails too (the notice is
        // not consumed).
        assert!(out[0].finish_time > 1.0);
    }

    #[test]
    fn lost_payload_surfaces_timeout() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let plan = FaultPlan {
            max_retransmits: Some(2),
            ..FaultPlan::none().with_loss(1.0)
        };
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            if ctx.rank() == 0 {
                let s = ctx.send(1, 4, vec![1.0; 64], MsgClass::Payload, OpShape::p2p());
                assert!(!s.delivered);
                assert_eq!(s.retransmits, 2);
            } else {
                match ctx.recv_result(0, 4) {
                    Err(CommError::Timeout { peer, tag, .. }) => {
                        assert_eq!((peer, tag), (0, 4));
                    }
                    other => panic!("expected Timeout, got {other:?}"),
                }
            }
            ctx.now()
        })
        .unwrap();
        assert_eq!(out[0].stats.msgs_lost, 1);
        assert_eq!(out[0].stats.retransmits, 2);
        // The receiver booked the watchdog wait as synchronization.
        assert!(out[1].stats.total().sync > 0.0);
    }

    #[test]
    fn control_messages_survive_total_loss() {
        let cfg = ClusterConfig::uni(2, NetworkKind::ScoreGigE);
        let plan = FaultPlan {
            max_retransmits: Some(2),
            ..FaultPlan::none().with_loss(1.0)
        };
        let out = run_cluster_faulty(cfg, plan, |ctx| {
            if ctx.rank() == 0 {
                let s = ctx.send(1, 4, Vec::new(), MsgClass::Control, OpShape::p2p());
                assert!(s.delivered, "control never gives up");
            } else {
                ctx.recv_result(0, 4).expect("control message arrives");
            }
            ctx.now()
        })
        .unwrap();
        assert_eq!(out[0].stats.msgs_lost, 0);
        assert!(out[0].stats.retransmits > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let plan = FaultPlan::none()
            .with_loss(0.2)
            .with_straggler(2, 2.0)
            .with_crash(3, 0.001);
        let run = || {
            run_cluster_faulty(cfg, plan.clone(), |ctx| {
                ctx.set_phase(Phase::Classic);
                ctx.charge_compute(0.002);
                ctx.poll_crash();
                let p = ctx.size();
                for other in 0..3usize {
                    if other == ctx.rank() {
                        continue;
                    }
                    ctx.send(
                        other,
                        11,
                        vec![0.5; 500],
                        MsgClass::Payload,
                        OpShape::new(1, p),
                    );
                }
                for other in 0..3usize {
                    if other == ctx.rank() {
                        continue;
                    }
                    let _ = ctx.recv_result(other, 11);
                }
                ctx.now()
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.crashed, y.crashed, "rank {}", x.rank);
            assert_eq!(x.finish_time.to_bits(), y.finish_time.to_bits());
            assert_eq!(x.stats.retransmits, y.stats.retransmits);
            assert_eq!(x.stats.msgs_lost, y.stats.msgs_lost);
            assert_eq!(x.stats.total(), y.stats.total());
        }
        assert!(a[3].crashed);
    }
}
