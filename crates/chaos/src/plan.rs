//! The host-side fault plans, their seeded samplers, and the composed
//! plan that joins them with the MD layer's under a [`LayerMask`].
//!
//! Every sampler draws schedule `index` of a campaign keyed by `seed`
//! through [`SplitMix64::for_message`] on its own sentinel channel —
//! the discipline `cpc-cluster`'s MD
//! [`FaultSpace`] set — so the five draws of a
//! [`ComposedFaultSpace`] are independent by construction and masking
//! a layer is a pure projection.

use cpc_cluster::{FaultPlan, FaultSpace, SplitMix64};
use cpc_pool::{SchedFault, SchedFaultPlan};
use cpc_vfs::{DiskFault, DiskFaultPlan};
use serde::{Deserialize, Serialize};

/// A count in `0..n` biased toward the low end (the square of a
/// uniform draw): schedules carry few faults more often than many.
fn choose(rng: &mut SplitMix64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let u = rng.next_f64();
    ((u * u) * n as f64) as u64
}

/// One fault against the *campaign job service* (the orchestrator
/// layer above the simulation): process kills at chosen commit
/// points, torn writes against the queue's or the results journal's
/// durable state, stale leases, and cache-entry bit flips. The
/// [conductor](crate::conductor) applies kills by ending an
/// incarnation and storage faults by damaging the on-disk files
/// between incarnations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceFault {
    /// A worker dies mid-cell: the `cells`-th fresh execution of the
    /// incarnation runs but its result never becomes durable.
    WorkerKill {
        /// Fresh execution (1-based) at which the worker dies.
        cells: usize,
    },
    /// The orchestrator dies mid-commit: the result has reached the
    /// journal but neither the cache nor the queue's Complete record.
    OrchestratorKillMidCommit {
        /// Fresh execution (1-based) at which it dies.
        cells: usize,
    },
    /// The orchestrator dies immediately after a full commit — the
    /// benign kill point; resume must be a pure no-op for that cell.
    OrchestratorKillAfterCommit {
        /// Fresh execution (1-based) at which it dies.
        cells: usize,
    },
    /// A queue shard's journal loses its tail (torn write at kill).
    TornQueueWrite {
        /// Shard index (reduced modulo the shard count).
        shard: usize,
        /// Fraction of the shard file's bytes that survive.
        keep_frac: f64,
    },
    /// The results journal loses its tail.
    TornResultWrite {
        /// Fraction of the journal's bytes that survive.
        keep_frac: f64,
    },
    /// A lease expires mid-execution and the cell is re-leased; the
    /// original holder then presents its stale lease on completion,
    /// which the queue must reject.
    StaleLease {
        /// Lease grant (1-based, within the incarnation) to stalemate.
        at_lease: usize,
    },
    /// One bit of one cache entry flips at rest; the entry checksum
    /// must catch it on next read.
    CacheBitFlip {
        /// Entry index into the sorted cache listing (reduced modulo
        /// the entry count at apply time).
        entry: usize,
        /// Byte offset (reduced modulo the entry size).
        byte: usize,
        /// Bit within the byte.
        bit: u8,
    },
}

/// A seeded schedule of [`ServiceFault`]s, applied in order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceFaultPlan {
    /// The faults, in application order.
    pub faults: Vec<ServiceFault>,
}

/// The fault envelope of one campaign job service: bounds on cell
/// count and shard count from which [`ServiceFaultSpace::sample`]
/// draws deterministic [`ServiceFaultPlan`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceFaultSpace {
    /// Cells in the campaign (bounds kill/stale positions).
    pub cells: usize,
    /// Queue journal shards (bounds torn-shard targets).
    pub shards: usize,
}

impl ServiceFaultSpace {
    /// Describes the fault space of one campaign.
    pub fn new(cells: usize, shards: usize) -> Self {
        ServiceFaultSpace { cells, shards }
    }

    /// Draws schedule `index` of the campaign keyed by `seed`. Pure in
    /// `(space, seed, index)`, like [`FaultSpace::sample`](cpc_cluster::FaultSpace::sample); a distinct
    /// sentinel channel keeps the two streams independent.
    pub fn sample(&self, seed: u64, index: u64) -> ServiceFaultPlan {
        let mut rng = SplitMix64::for_message(seed, 0x5E4C, 0xFA17, index);
        let mut plan = ServiceFaultPlan::default();
        let cells = self.cells.max(1);
        // 1..=3 faults per schedule, biased toward fewer.
        let n = 1 + choose(&mut rng, 3);
        for _ in 0..n {
            let cell = 1 + (rng.next_u64() as usize) % cells;
            let fault = match rng.next_u64() % 7 {
                0 => ServiceFault::WorkerKill { cells: cell },
                1 | 2 => ServiceFault::OrchestratorKillMidCommit { cells: cell },
                3 => ServiceFault::OrchestratorKillAfterCommit { cells: cell },
                4 => ServiceFault::TornQueueWrite {
                    shard: (rng.next_u64() as usize) % self.shards.max(1),
                    keep_frac: 0.95 * rng.next_f64(),
                },
                5 => ServiceFault::TornResultWrite {
                    keep_frac: 0.95 * rng.next_f64(),
                },
                _ => {
                    if rng.next_u64().is_multiple_of(2) {
                        ServiceFault::StaleLease { at_lease: cell }
                    } else {
                        ServiceFault::CacheBitFlip {
                            entry: rng.next_u64() as usize % cells,
                            byte: rng.next_u64() as usize % (1 << 12),
                            bit: (rng.next_u64() % 8) as u8,
                        }
                    }
                }
            };
            plan.faults.push(fault);
        }
        plan
    }
}

/// One fault against the *transport layer* of the campaign gateway
/// (the HTTP/JSON front door above the job service): misbehaving
/// clients — malformed request lines, truncated bodies, byte-dribbling
/// slowloris readers, mid-response disconnects, connection floods —
/// plus kills of the gateway process itself. The
/// [conductor](crate::conductor) turns each fault into one or more
/// scripted client connections (or a gateway restart) interleaved
/// with a well-behaved client driving a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransportFault {
    /// A client sends one of a fixed set of malformed request heads
    /// (garbage line, missing version, bare LF, binary noise, an
    /// oversized URI, an unsupported version). Must be rejected with a
    /// 4xx/5xx — never a panic or a hang.
    MalformedRequest {
        /// Which malformation (reduced modulo the variant count).
        variant: u8,
    },
    /// A client declares `Content-Length: N` but disconnects after
    /// sending only `keep_frac` of the body.
    TruncatedBody {
        /// Fraction of the declared body actually sent.
        keep_frac: f64,
    },
    /// A slowloris client dribbles its request a few bytes at a time
    /// with a virtual delay between chunks, trying to hold the
    /// connection open past the read deadline.
    SlowReader {
        /// Bytes per dribble.
        chunk: usize,
        /// Virtual seconds between dribbles.
        delay: f64,
    },
    /// The client vanishes while the gateway is writing the response
    /// (write fails with a broken pipe after `after` bytes).
    MidResponseDisconnect {
        /// Response bytes accepted before the disconnect.
        after: usize,
    },
    /// A burst of connections that open and send nothing: each must be
    /// reaped by the read deadline and closed (no fd leak).
    ConnectionFlood {
        /// Connections in the burst.
        conns: usize,
    },
    /// `kill -9` of the gateway process at the `cells`-th fresh cell
    /// execution, at one of the three service commit points
    /// (0 = before the result is durable, 1 = mid-commit, 2 = after).
    GatewayKill {
        /// Fresh execution (1-based) at which the process dies.
        cells: usize,
        /// Commit point (reduced modulo 3).
        point: u8,
    },
}

/// A seeded schedule of [`TransportFault`]s, applied in order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TransportFaultPlan {
    /// The faults, in application order.
    pub faults: Vec<TransportFault>,
}

/// The transport fault envelope of one gateway campaign: bounds on
/// cell count from which [`TransportFaultSpace::sample`] draws
/// deterministic [`TransportFaultPlan`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportFaultSpace {
    /// Cells in the campaign (bounds kill positions).
    pub cells: usize,
}

impl TransportFaultSpace {
    /// Describes the transport fault space of one gateway campaign.
    pub fn new(cells: usize) -> Self {
        TransportFaultSpace { cells }
    }

    /// Draws schedule `index` of the campaign keyed by `seed`. Pure in
    /// `(space, seed, index)` like the other samplers; a distinct
    /// sentinel channel keeps the stream independent of both the
    /// simulation and the service fault streams.
    pub fn sample(&self, seed: u64, index: u64) -> TransportFaultPlan {
        let mut rng = SplitMix64::for_message(seed, 0x7C9A, 0x6A7E, index);
        let mut plan = TransportFaultPlan::default();
        let cells = self.cells.max(1);
        // 1..=4 faults per schedule, biased toward fewer.
        let n = 1 + choose(&mut rng, 4);
        for _ in 0..n {
            let fault = match rng.next_u64() % 8 {
                0 | 1 => TransportFault::MalformedRequest {
                    variant: (rng.next_u64() % 6) as u8,
                },
                2 => TransportFault::TruncatedBody {
                    keep_frac: 0.95 * rng.next_f64(),
                },
                3 => TransportFault::SlowReader {
                    chunk: 1 + (rng.next_u64() as usize) % 4,
                    delay: 0.5 + 2.0 * rng.next_f64(),
                },
                4 => TransportFault::MidResponseDisconnect {
                    after: (rng.next_u64() as usize) % 64,
                },
                5 => TransportFault::ConnectionFlood {
                    conns: 2 + (rng.next_u64() as usize) % 6,
                },
                _ => TransportFault::GatewayKill {
                    cells: 1 + (rng.next_u64() as usize) % cells,
                    point: (rng.next_u64() % 3) as u8,
                },
            };
            plan.faults.push(fault);
        }
        plan
    }
}

/// The disk fault envelope of one durability workload: a bound on the
/// mutating-op horizon from which [`DiskFaultSpace::sample`] draws
/// deterministic [`DiskFaultPlan`]s (the types live in `cpc-vfs` so
/// the simulated filesystem can interpret a plan; the sampler lives
/// here with its siblings so every host-side chaos stream shares one
/// seeding discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFaultSpace {
    /// Mutating filesystem operations in the fault-free run (bounds
    /// fault positions; measure it with `SimFs::op_count` after a
    /// clean run, or over-estimate — a fault armed past the end of the
    /// run simply never fires).
    pub ops: u64,
}

impl DiskFaultSpace {
    /// Describes the disk fault space of one durability workload.
    pub fn new(ops: u64) -> Self {
        DiskFaultSpace { ops }
    }

    /// Draws schedule `index` of the campaign keyed by `seed`. Pure in
    /// `(space, seed, index)` like the other samplers; a distinct
    /// sentinel channel keeps the stream independent of the
    /// simulation, service, and transport fault streams.
    pub fn sample(&self, seed: u64, index: u64) -> DiskFaultPlan {
        let mut rng = SplitMix64::for_message(seed, 0xD15C, 0x0F5B, index);
        let mut plan = DiskFaultPlan::none();
        let ops = self.ops.max(1);
        // 1..=3 faults per schedule, biased toward fewer.
        let n = 1 + choose(&mut rng, 3);
        for _ in 0..n {
            let at = 1 + rng.next_u64() % ops;
            let fault = match rng.next_u64() % 8 {
                0 => DiskFault::EnospcTransient {
                    at,
                    ops: 1 + rng.next_u64() % 12,
                },
                1 => DiskFault::EnospcPersistent { at },
                2 => DiskFault::EioWrite { at },
                3 => DiskFault::EioFsync { at },
                4 => DiskFault::ShortWrite {
                    at,
                    keep_frac: 0.95 * rng.next_f64(),
                },
                5 => DiskFault::RenameFail { at },
                // Power loss is the richest fault, so it gets two
                // lanes: plain (unsynced bytes vanish wholesale) and
                // reordering writeback (each file keeps an independent
                // prefix).
                n => DiskFault::PowerLoss {
                    at,
                    reorder: n == 7,
                    keep_seed: rng.next_u64(),
                },
            };
            plan.faults.push(fault);
        }
        debug_assert!(plan.validate().is_ok(), "sampled plans are in-bounds");
        plan
    }
}

/// The scheduling fault envelope of one pooled campaign: a bound on
/// the cell count from which [`SchedFaultSpace::sample`] draws
/// deterministic [`SchedFaultPlan`]s (the types live in `cpc-pool` so
/// the executor can interpret a plan; the sampler lives here with its
/// siblings so every host-side chaos stream shares one seeding
/// discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedFaultSpace {
    /// Cells in the campaign (bounds panic starts, thread-change
    /// commits and lease positions; every task-keyed fault is drawn
    /// in `1..=cells` so it is guaranteed to fire).
    pub cells: usize,
}

impl SchedFaultSpace {
    /// Describes the scheduling fault space of one pooled campaign.
    pub fn new(cells: usize) -> Self {
        SchedFaultSpace { cells }
    }

    /// Draws schedule `index` of the campaign keyed by `seed`. Pure in
    /// `(space, seed, index)` like the other samplers; a distinct
    /// sentinel channel keeps the stream independent of the
    /// simulation, service, transport, and disk fault streams.
    pub fn sample(&self, seed: u64, index: u64) -> SchedFaultPlan {
        let mut rng = SplitMix64::for_message(seed, 0x5CED, 0x4EDF, index);
        let cells = self.cells.max(1);
        let threads = [2, 4, 8][(rng.next_u64() % 3) as usize];
        let mut plan = SchedFaultPlan::quiet(threads);
        // 1..=3 faults per schedule, biased toward fewer.
        let n = 1 + choose(&mut rng, 3);
        for _ in 0..n {
            let fault = match rng.next_u64() % 6 {
                // Pauses get three of the six lanes: they are the
                // workhorse that actually reorders completions. A
                // per-worker yield point fires once per claimed task,
                // so 4x cells over-arms safely (a pause armed past the
                // end of the run simply never fires).
                0..=2 => SchedFault::WorkerPause {
                    worker: (rng.next_u64() as usize) % threads,
                    at_point: 1 + rng.next_u64() % (4 * cells as u64),
                    micros: 1 + rng.next_u64() % 20_000,
                },
                3 => SchedFault::TaskPanic {
                    at_start: 1 + (rng.next_u64() as usize) % cells,
                },
                4 => SchedFault::ThreadCountChange {
                    after_commits: 1 + (rng.next_u64() as usize) % cells,
                    threads: [1, 2, 4, 8][(rng.next_u64() % 4) as usize],
                },
                _ => SchedFault::LeaseExpiryRace {
                    at_lease: 1 + (rng.next_u64() as usize) % cells,
                },
            };
            plan.faults.push(fault);
        }
        plan
    }
}

/// One of the five chaos layers the composed conductor arms: the MD
/// simulation itself, the campaign job service, the HTTP transport,
/// the durable storage underneath everything, and the thread pool
/// driving execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layer {
    /// MD/network fault schedule ([`FaultPlan`]).
    Md,
    /// Campaign-service kills, torn writes, stale leases
    /// ([`ServiceFaultPlan`]).
    Service,
    /// HTTP transport chaos against the gateway
    /// ([`TransportFaultPlan`]).
    Transport,
    /// Disk faults on the simulated filesystem ([`DiskFaultPlan`]).
    Disk,
    /// Scheduling chaos on the thread pool
    /// ([`SchedFaultPlan`]).
    Sched,
}

/// Every layer, in the canonical order the cross-layer minimizer
/// probes them (and the order pairwise coverage is reported in).
pub const LAYERS: [Layer; 5] = [
    Layer::Md,
    Layer::Service,
    Layer::Transport,
    Layer::Disk,
    Layer::Sched,
];

impl Layer {
    /// Stable lower-case name (journals, reproducer JSON, reports).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Md => "md",
            Layer::Service => "service",
            Layer::Transport => "transport",
            Layer::Disk => "disk",
            Layer::Sched => "sched",
        }
    }
}

/// Which layers of a composed schedule are armed. Masking a layer
/// substitutes its quiet plan at run time **without** touching the
/// other layers' sampled schedules — each layer draws from its own
/// sentinel channel, so the mask is a pure projection. This is what
/// lets the cross-layer minimizer drop whole layers first and lets
/// the property tests assert that an all-masked schedule is
/// byte-identical to the fault-free reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMask {
    /// MD layer armed.
    pub md: bool,
    /// Service layer armed.
    pub service: bool,
    /// Transport layer armed.
    pub transport: bool,
    /// Disk layer armed.
    pub disk: bool,
    /// Scheduler layer armed.
    pub sched: bool,
}

impl LayerMask {
    /// Every layer armed (how schedules are sampled).
    pub fn all() -> Self {
        LayerMask {
            md: true,
            service: true,
            transport: true,
            disk: true,
            sched: true,
        }
    }

    /// Every layer masked out (the fault-free projection).
    pub fn none() -> Self {
        LayerMask {
            md: false,
            service: false,
            transport: false,
            disk: false,
            sched: false,
        }
    }

    /// Only `layer` armed: the mask under which the composed
    /// conductor *is* that layer's single-layer campaign.
    pub fn only(layer: Layer) -> Self {
        LayerMask::none().set(layer, true)
    }

    fn slot(&mut self, layer: Layer) -> &mut bool {
        match layer {
            Layer::Md => &mut self.md,
            Layer::Service => &mut self.service,
            Layer::Transport => &mut self.transport,
            Layer::Disk => &mut self.disk,
            Layer::Sched => &mut self.sched,
        }
    }

    /// Whether `layer` is armed.
    pub fn get(mut self, layer: Layer) -> bool {
        *self.slot(layer)
    }

    /// A copy with `layer` set to `on`.
    #[must_use = "set returns a new mask; it does not mutate in place"]
    pub fn set(mut self, layer: Layer, on: bool) -> Self {
        *self.slot(layer) = on;
        self
    }

    /// A copy with `layer` masked out.
    #[must_use = "without returns a new mask; it does not mutate in place"]
    pub fn without(self, layer: Layer) -> Self {
        self.set(layer, false)
    }

    /// Number of armed layers.
    pub fn armed(self) -> usize {
        LAYERS.iter().filter(|&&l| self.get(l)).count()
    }
}

impl Default for LayerMask {
    fn default() -> Self {
        LayerMask::all()
    }
}

/// Parses a comma-separated list of layer names (`service`,
/// `md,disk`, …) into the mask arming exactly those layers.
impl std::str::FromStr for LayerMask {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        s.split(',').try_fold(LayerMask::none(), |mask, name| {
            LAYERS
                .into_iter()
                .find(|layer| layer.name() == name.trim())
                .map(|layer| mask.set(layer, true))
                .ok_or_else(|| format!("unknown layer `{name}`"))
        })
    }
}

/// The armed layers' names, comma-separated, in [`LAYERS`] order —
/// what [`LayerMask::from_str`](std::str::FromStr) parses back.
impl std::fmt::Display for LayerMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = LAYERS
            .into_iter()
            .filter(|&layer| self.get(layer))
            .map(Layer::name)
            .collect();
        f.write_str(&names.join(","))
    }
}

/// One joint fault schedule across all five layers, plus the mask
/// that projects it. The [conductor](crate::conductor) drives a full
/// serve-backed campaign under the masked projection; the cross-layer
/// [minimizer](crate::minimize) shrinks failing plans by masking
/// layers first, then ddmin-ing events within the survivors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComposedPlan {
    /// Which layers are armed (a pure projection over the schedules
    /// below — masking never changes them).
    pub mask: LayerMask,
    /// MD/network layer schedule.
    pub md: FaultPlan,
    /// Campaign-service layer schedule.
    pub service: ServiceFaultPlan,
    /// HTTP transport layer schedule.
    pub transport: TransportFaultPlan,
    /// Disk layer schedule.
    pub disk: DiskFaultPlan,
    /// Scheduler layer schedule (also fixes the pool thread count).
    pub sched: SchedFaultPlan,
}

impl ComposedPlan {
    /// The fault-free composed plan: empty schedules in every layer,
    /// all layers nominally armed, `threads` pool workers.
    pub fn quiet(threads: usize) -> Self {
        ComposedPlan {
            mask: LayerMask::all(),
            md: FaultPlan::none(),
            service: ServiceFaultPlan::default(),
            transport: TransportFaultPlan::default(),
            disk: DiskFaultPlan::none(),
            sched: SchedFaultPlan::quiet(threads),
        }
    }

    /// A copy under a different mask (the schedules are untouched).
    pub fn masked(&self, mask: LayerMask) -> Self {
        ComposedPlan {
            mask,
            ..self.clone()
        }
    }

    /// Raw event count of one layer's schedule, ignoring the mask.
    pub(crate) fn events_in(&self, layer: Layer) -> usize {
        match layer {
            Layer::Md => {
                (self.md.loss > 0.0) as usize
                    + self.md.degradations.len()
                    + self.md.stragglers.len()
                    + self.md.crashes.len()
                    + self.md.storage.len()
                    + self.md.sdc.len()
            }
            Layer::Service => self.service.faults.len(),
            Layer::Transport => self.transport.faults.len(),
            Layer::Disk => self.disk.faults.len(),
            Layer::Sched => self.sched.faults.len(),
        }
    }

    /// Armed event count: the sum over unmasked layers. A minimized
    /// reproducer's size is measured in these.
    pub fn events(&self) -> usize {
        LAYERS
            .iter()
            .filter(|&&l| self.mask.get(l))
            .map(|&l| self.events_in(l))
            .sum()
    }

    /// True when `layer` is both unmasked and non-empty — the
    /// definition of "exercised" for pairwise interaction coverage.
    pub fn armed(&self, layer: Layer) -> bool {
        self.mask.get(layer) && self.events_in(layer) > 0
    }

    /// The layers this plan actually exercises.
    pub fn armed_layers(&self) -> Vec<Layer> {
        LAYERS.iter().copied().filter(|&l| self.armed(l)).collect()
    }

    /// The schedule the conductor runs: every masked layer's faults
    /// removed, every armed layer's kept. The scheduler's thread count
    /// survives masking: determinism across thread counts is the
    /// executor's contract, and keeping it makes the masked projection
    /// a pure fault removal, not a topology change.
    pub fn effective(&self) -> ComposedPlan {
        let mut plan = self.clone();
        if !plan.mask.md {
            plan.md = FaultPlan::none();
        }
        if !plan.mask.service {
            plan.service.faults.clear();
        }
        if !plan.mask.transport {
            plan.transport.faults.clear();
        }
        if !plan.mask.disk {
            plan.disk.faults.clear();
        }
        if !plan.mask.sched {
            plan.sched.faults.clear();
        }
        plan
    }
}

/// The joint fault envelope of one composed campaign: the five
/// single-layer spaces side by side. [`ComposedFaultSpace::sample`]
/// draws one schedule per layer at the same `(seed, index)` — each
/// sampler already keys its `SplitMix64` stream with a distinct
/// sentinel channel, so the five draws are independent **by
/// construction**: the composed schedule of layer L equals the
/// single-layer campaign's schedule L at the same `(seed, index)`,
/// and masking or minimizing one layer can never perturb another's
/// events. That structural property is what the mask-independence
/// test pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposedFaultSpace {
    /// MD/network fault envelope.
    pub md: FaultSpace,
    /// Campaign-service fault envelope.
    pub service: ServiceFaultSpace,
    /// Transport fault envelope.
    pub transport: TransportFaultSpace,
    /// Disk fault envelope.
    pub disk: DiskFaultSpace,
    /// Scheduler fault envelope.
    pub sched: SchedFaultSpace,
}

impl ComposedFaultSpace {
    /// Draws composed schedule `index` of the campaign keyed by
    /// `seed`, every layer armed. Pure in `(space, seed, index)`.
    /// Every single-layer sampler draws at least one fault, so an
    /// unmasked composed schedule exercises all ten pairwise layer
    /// interactions.
    pub fn sample(&self, seed: u64, index: u64) -> ComposedPlan {
        ComposedPlan {
            mask: LayerMask::all(),
            md: self.md.sample(seed, index),
            service: self.service.sample(seed, index),
            transport: self.transport.sample(seed, index),
            disk: self.disk.sample(seed, index),
            sched: self.sched.sample(seed, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_sampling_is_deterministic_and_in_bounds() {
        let s = ServiceFaultSpace::new(12, 4);
        let mut kill_plans = 0;
        for i in 0..100 {
            let plan = s.sample(7, i);
            assert_eq!(plan, s.sample(7, i), "pure in (seed, index)");
            assert!((1..=3).contains(&plan.faults.len()));
            let mut kills = false;
            for f in &plan.faults {
                match *f {
                    ServiceFault::WorkerKill { cells }
                    | ServiceFault::OrchestratorKillMidCommit { cells }
                    | ServiceFault::OrchestratorKillAfterCommit { cells } => {
                        kills = true;
                        assert!((1..=s.cells).contains(&cells))
                    }
                    ServiceFault::StaleLease { at_lease } => {
                        assert!((1..=s.cells).contains(&at_lease))
                    }
                    ServiceFault::TornQueueWrite { shard, keep_frac } => {
                        assert!(shard < s.shards);
                        assert!((0.0..1.0).contains(&keep_frac));
                    }
                    ServiceFault::TornResultWrite { keep_frac } => {
                        assert!((0.0..1.0).contains(&keep_frac))
                    }
                    ServiceFault::CacheBitFlip { bit, .. } => assert!(bit < 8),
                }
            }
            kill_plans += kills as usize;
        }
        assert!(kill_plans > 30, "kills dominate the mix: {kill_plans}");
        let distinct = (0..50)
            .filter(|&i| s.sample(7, i) != s.sample(8, i))
            .count();
        assert!(distinct > 25, "seed must drive the draw");
    }

    #[test]
    fn transport_sampling_is_deterministic_in_bounds_and_explores() {
        let s = TransportFaultSpace::new(12);
        let plans: Vec<TransportFaultPlan> = (0..200).map(|i| s.sample(7, i)).collect();
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(*plan, s.sample(7, i as u64), "pure in (seed, index)");
            assert!((1..=4).contains(&plan.faults.len()));
            for f in &plan.faults {
                match *f {
                    TransportFault::MalformedRequest { variant } => assert!(variant < 6),
                    TransportFault::TruncatedBody { keep_frac } => {
                        assert!((0.0..1.0).contains(&keep_frac))
                    }
                    TransportFault::SlowReader { chunk, delay } => {
                        assert!(chunk >= 1 && delay > 0.0)
                    }
                    TransportFault::MidResponseDisconnect { after } => assert!(after < 64),
                    TransportFault::ConnectionFlood { conns } => assert!((2..=7).contains(&conns)),
                    TransportFault::GatewayKill { cells, point } => {
                        assert!((1..=s.cells).contains(&cells));
                        assert!(point < 3);
                    }
                }
            }
        }
        // Every fault class appears somewhere in the stream.
        let has =
            |pred: &dyn Fn(&TransportFault) -> bool| plans.iter().flat_map(|p| &p.faults).any(pred);
        assert!(has(&|f| matches!(
            f,
            TransportFault::MalformedRequest { .. }
        )));
        assert!(has(&|f| matches!(f, TransportFault::TruncatedBody { .. })));
        assert!(has(&|f| matches!(f, TransportFault::SlowReader { .. })));
        assert!(has(&|f| matches!(
            f,
            TransportFault::MidResponseDisconnect { .. }
        )));
        assert!(has(&|f| matches!(
            f,
            TransportFault::ConnectionFlood { .. }
        )));
        assert!(has(&|f| matches!(f, TransportFault::GatewayKill { .. })));
        let distinct = (0..50)
            .filter(|&i| s.sample(7, i) != s.sample(8, i))
            .count();
        assert!(distinct > 25, "seed must drive the draw");
    }

    #[test]
    fn disk_sampling_is_deterministic_in_bounds_and_explores() {
        let s = DiskFaultSpace::new(40);
        let plans: Vec<DiskFaultPlan> = (0..200).map(|i| s.sample(7, i)).collect();
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(*plan, s.sample(7, i as u64), "pure in (seed, index)");
            assert!((1..=3).contains(&plan.faults.len()));
            assert!(plan.validate().is_ok());
            for f in &plan.faults {
                assert!((1..=s.ops).contains(&f.at()), "fault inside the horizon");
            }
        }
        // Every fault class appears somewhere in the stream, including
        // both power-loss lanes.
        let has =
            |pred: &dyn Fn(&DiskFault) -> bool| plans.iter().flat_map(|p| &p.faults).any(pred);
        assert!(has(&|f| matches!(f, DiskFault::EnospcTransient { .. })));
        assert!(has(&|f| matches!(f, DiskFault::EnospcPersistent { .. })));
        assert!(has(&|f| matches!(f, DiskFault::EioWrite { .. })));
        assert!(has(&|f| matches!(f, DiskFault::EioFsync { .. })));
        assert!(has(&|f| matches!(f, DiskFault::ShortWrite { .. })));
        assert!(has(&|f| matches!(f, DiskFault::RenameFail { .. })));
        assert!(has(&|f| matches!(
            f,
            DiskFault::PowerLoss { reorder: false, .. }
        )));
        assert!(has(&|f| matches!(
            f,
            DiskFault::PowerLoss { reorder: true, .. }
        )));
        let distinct = (0..50)
            .filter(|&i| s.sample(7, i) != s.sample(8, i))
            .count();
        assert!(distinct > 25, "seed must drive the draw");
    }

    #[test]
    fn sched_sampling_is_deterministic_in_bounds_and_explores() {
        let s = SchedFaultSpace::new(24);
        let plans: Vec<SchedFaultPlan> = (0..200).map(|i| s.sample(7, i)).collect();
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(*plan, s.sample(7, i as u64), "pure in (seed, index)");
            assert!([2, 4, 8].contains(&plan.threads));
            assert!((1..=3).contains(&plan.faults.len()));
            for f in &plan.faults {
                match *f {
                    SchedFault::WorkerPause {
                        worker,
                        at_point,
                        micros,
                    } => {
                        assert!(worker < plan.threads);
                        assert!((1..=4 * s.cells as u64).contains(&at_point));
                        assert!((1..=20_000).contains(&micros), "pauses stay short");
                    }
                    SchedFault::TaskPanic { at_start } => {
                        assert!((1..=s.cells).contains(&at_start), "panic must fire");
                    }
                    SchedFault::ThreadCountChange {
                        after_commits,
                        threads,
                    } => {
                        assert!((1..=s.cells).contains(&after_commits));
                        assert!([1, 2, 4, 8].contains(&threads));
                    }
                    SchedFault::LeaseExpiryRace { at_lease } => {
                        assert!((1..=s.cells).contains(&at_lease));
                    }
                }
            }
        }
        // Every fault class appears somewhere in the stream.
        let has =
            |pred: &dyn Fn(&SchedFault) -> bool| plans.iter().flat_map(|p| &p.faults).any(pred);
        assert!(has(&|f| matches!(f, SchedFault::WorkerPause { .. })));
        assert!(has(&|f| matches!(f, SchedFault::TaskPanic { .. })));
        assert!(has(&|f| matches!(f, SchedFault::ThreadCountChange { .. })));
        assert!(has(&|f| matches!(f, SchedFault::LeaseExpiryRace { .. })));
        let distinct = (0..50)
            .filter(|&i| s.sample(7, i) != s.sample(8, i))
            .count();
        assert!(distinct > 25, "seed must drive the draw");
    }

    fn composed_space() -> ComposedFaultSpace {
        ComposedFaultSpace {
            md: FaultSpace::new(4, 4, 8, 2.0, 100),
            service: ServiceFaultSpace::new(6, 4),
            transport: TransportFaultSpace::new(6),
            disk: DiskFaultSpace::new(200),
            sched: SchedFaultSpace::new(6),
        }
    }

    #[test]
    fn composed_sampling_is_deterministic_and_every_layer_armed() {
        let s = composed_space();
        for i in 0..50 {
            let plan = s.sample(42, i);
            assert_eq!(plan, s.sample(42, i), "pure in (seed, index)");
            assert_eq!(plan.mask, LayerMask::all());
            for layer in LAYERS {
                assert!(
                    plan.armed(layer),
                    "schedule {i}: layer {} must draw at least one fault",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn composed_layers_match_the_single_layer_campaigns() {
        // Structural independence: the composed draw of each layer IS
        // the single-layer campaign's draw at the same (seed, index) —
        // the sentinel channels never share stream state.
        let s = composed_space();
        for i in 0..20 {
            let plan = s.sample(7, i);
            assert_eq!(plan.md, s.md.sample(7, i));
            assert_eq!(plan.service, s.service.sample(7, i));
            assert_eq!(plan.transport, s.transport.sample(7, i));
            assert_eq!(plan.disk, s.disk.sample(7, i));
            assert_eq!(plan.sched, s.sched.sample(7, i));
        }
    }

    #[test]
    fn masking_projects_without_perturbing_other_layers() {
        let s = composed_space();
        let plan = s.sample(11, 3);
        for layer in LAYERS {
            let masked = plan.masked(plan.mask.without(layer));
            assert!(!masked.armed(layer));
            assert_eq!(masked.events(), plan.events() - plan.events_in(layer));
            // The un-masked layers' schedules are byte-for-byte the
            // originals.
            assert_eq!(masked.md, plan.md);
            assert_eq!(masked.service, plan.service);
            assert_eq!(masked.transport, plan.transport);
            assert_eq!(masked.disk, plan.disk);
            assert_eq!(masked.sched, plan.sched);
        }
        let quiet = plan.masked(LayerMask::none());
        assert_eq!(quiet.events(), 0);
        assert_eq!(
            quiet.effective(),
            ComposedPlan::quiet(plan.sched.threads).masked(LayerMask::none()),
            "nothing survives a full mask but the sched layer's thread count"
        );
        // An armed layer's schedule survives `effective` untouched.
        let only_disk = plan.masked(LayerMask::only(Layer::Disk)).effective();
        assert_eq!(only_disk.disk, plan.disk);
        assert!(only_disk.service.faults.is_empty() && only_disk.md == FaultPlan::none());
    }

    #[test]
    fn a_layer_list_parses_to_its_mask_and_prints_back() {
        assert_eq!("service".parse(), Ok(LayerMask::only(Layer::Service)));
        assert_eq!(
            "md, disk".parse(),
            Ok(LayerMask::only(Layer::Md).set(Layer::Disk, true))
        );
        assert_eq!(
            LayerMask::all().to_string(),
            "md,service,transport,disk,sched"
        );
        assert_eq!(LayerMask::all().to_string().parse(), Ok(LayerMask::all()));
        for bad in ["nope", "", "disk,", "Disk"] {
            assert!(bad.parse::<LayerMask>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn composed_plan_round_trips_through_json() {
        let s = composed_space();
        let plan = s
            .sample(23, 5)
            .masked(LayerMask::all().without(Layer::Disk));
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: ComposedPlan = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, plan);
    }
}
