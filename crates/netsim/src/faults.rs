//! Deterministic fault injection: lossy links, transient link
//! degradation, straggler nodes, and permanent rank crashes.
//!
//! A [`FaultPlan`] is pure data attached to a cluster run. All
//! randomness used to realize the plan comes from the existing
//! per-channel [`SplitMix64`](crate::SplitMix64) message streams, so a
//! given `(seed, FaultPlan)` pair replays bit-identically regardless of
//! OS thread scheduling. An all-zero plan ([`FaultPlan::none`])
//! consumes exactly the same random draws as a run without any fault
//! machinery, keeping the fault-free figures bit-identical.
//!
//! Semantics at a glance:
//!
//! * **Loss** applies to inter-node payload traffic. Lost packets are
//!   re-costed through the retransmission model of
//!   `NetworkParams::transfer_faulty`
//!   (RTO with exponential backoff above a delayed-ACK floor).
//! * **Degradations** are virtual-time windows during which a link (or
//!   every link) suffers extra loss and/or a wire-time multiplier.
//! * **Stragglers** scale the CPU time of every rank on a node.
//! * **Crashes** are fail-stop: the rank unwinds at its next
//!   [`poll_crash`](crate::RankCtx::poll_crash) point after the crash
//!   time and never communicates again.

use serde::{Deserialize, Serialize};

/// A transient degradation window on one link (or all links).
///
/// While `start <= t < end` (virtual seconds, judged at message
/// departure), matching transfers suffer `extra_loss` additional packet
/// loss and have their wire time multiplied by `wire_factor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDegradation {
    /// Window start, virtual seconds.
    pub start: f64,
    /// Window end, virtual seconds.
    pub end: f64,
    /// Additional packet-loss probability while the window is active.
    pub extra_loss: f64,
    /// Multiplier applied to the wire time while the window is active.
    pub wire_factor: f64,
    /// Source rank the window applies to (`None` = any source).
    pub src: Option<usize>,
    /// Destination rank the window applies to (`None` = any
    /// destination).
    pub dst: Option<usize>,
}

impl LinkDegradation {
    /// A degradation of every link during `[start, end)`.
    pub fn global(start: f64, end: f64, extra_loss: f64, wire_factor: f64) -> Self {
        LinkDegradation {
            start,
            end,
            extra_loss,
            wire_factor,
            src: None,
            dst: None,
        }
    }

    fn matches(&self, src: usize, dst: usize, t: f64) -> bool {
        t >= self.start
            && t < self.end
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// A node whose CPUs run slower than nominal (e.g. thermal throttling
/// or background load) during a virtual-time window.
///
/// A *persistent* straggler covers the whole run (`start == 0`,
/// `end == f64::MAX`); a *transient* one covers `start <= t < end`
/// only, judged against the rank's virtual clock as compute time is
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Node index (see [`ClusterConfig::node_of`](crate::ClusterConfig::node_of)).
    pub node: usize,
    /// CPU-time multiplier (`>= 1.0`; `2.0` = half speed).
    pub slowdown: f64,
    /// Window start, virtual seconds.
    pub start: f64,
    /// Window end, virtual seconds (half-open; `f64::MAX` = forever).
    pub end: f64,
}

/// A permanent fail-stop crash of one rank at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankCrash {
    /// The rank that crashes.
    pub rank: usize,
    /// Virtual time at (or after) which the rank crashes. The crash
    /// manifests at the rank's next `poll_crash` call with
    /// `clock >= at`.
    pub at: f64,
}

/// How a scheduled storage fault corrupts a durable checkpoint write.
///
/// Storage faults are deterministic — no RNG draw is consumed — so a
/// plan replays bit-identically and, because durable writes charge no
/// virtual time beyond the existing checkpoint cost, they can never
/// perturb the simulation's timing figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StorageFaultKind {
    /// The write is torn: only the leading `keep_frac` of the file's
    /// bytes reach the disk (a crash between `write` and `fsync`).
    TornWrite {
        /// Fraction of the file retained, in `[0, 1)`.
        keep_frac: f64,
    },
    /// A single bit of the stored file flips (media corruption).
    BitFlip {
        /// Byte offset of the flip (taken modulo the file length).
        byte: usize,
        /// Bit index within the byte, `0..8`.
        bit: u8,
    },
    /// The file vanishes entirely (lost inode, deleted by an
    /// operator, wrong volume).
    Missing,
}

/// One scheduled corruption of a durable checkpoint write.
///
/// The fault fires on the first durable write that happens at virtual
/// time `>= at`; each fault fires exactly once, in `at` order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageFault {
    /// Virtual time at (or after) which the next durable write is hit.
    pub at: f64,
    /// What happens to that write.
    pub kind: StorageFaultKind,
}

/// Which replicated MD array a silent-data-corruption event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SdcTarget {
    /// The post-exchange position array.
    Positions,
    /// The freshly evaluated force array.
    Forces,
}

/// One silent bit flip in a replicated MD array (the cosmic-ray /
/// bad-DIMM fault model).
///
/// SDC events are triggered by *MD step index*, not virtual time:
/// per-rank virtual clocks differ, but the step counter is replicated,
/// so every rank applies the identical corruption and the replicated
/// state stays consistent — the fault is silent by construction, and
/// only the numerical watchdog (or an oracle diff against the golden
/// run) can expose it. Each event fires exactly once; a
/// watchdog-driven rollback does not re-fire it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdcFault {
    /// 1-based MD step being computed when the flip lands. An event at
    /// step `s` corrupts the arrays produced while computing step `s`.
    pub step: u64,
    /// Which array is corrupted.
    pub target: SdcTarget,
    /// Atom index (taken modulo the system's atom count).
    pub atom: usize,
    /// Coordinate axis, `0..3` (x, y, z).
    pub axis: u8,
    /// Bit of the f64 to flip, `0..64` (0 = least-significant mantissa
    /// bit, 52..63 = exponent, 63 = sign).
    pub bit: u8,
}

/// Per-message fault parameters of one link at one instant, resolved
/// from a [`FaultPlan`] by the engine at send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkFault {
    /// Effective packet-loss probability in `[0, 1]`.
    pub loss: f64,
    /// Wire-time multiplier (`1.0` = nominal).
    pub wire_factor: f64,
    /// Retransmission rounds before the transport gives up. Ignored
    /// unless `give_up` is set; rounds are always capped at
    /// [`MAX_RETRANSMIT_ROUNDS`].
    pub max_retransmits: u32,
    /// Whether the transport may give up (drop the message) after
    /// `max_retransmits` rounds. When `false` the message always
    /// arrives, only later (reliable, TCP-like transport).
    pub give_up: bool,
}

/// Hard cap on retransmission rounds per message, so that a fully
/// opaque link (`loss == 1.0`) stalls for a bounded, deterministic
/// number of backoffs instead of looping forever.
pub(crate) const MAX_RETRANSMIT_ROUNDS: u32 = 64;

impl LinkFault {
    /// A fault-free link: the transfer model takes exactly the clean
    /// path and consumes exactly the clean number of random draws.
    pub fn clean() -> Self {
        LinkFault {
            loss: 0.0,
            wire_factor: 1.0,
            max_retransmits: 0,
            give_up: false,
        }
    }
}

/// Default receiver-side watchdog timeout, seconds: how long a blocked
/// receive waits past the evidence of failure (a tombstone or crash
/// notice) before surfacing a typed error.
pub(crate) const DEFAULT_WATCHDOG_TIMEOUT: f64 = 0.25;

/// A deterministic fault-injection plan for one cluster run.
///
/// The default ([`FaultPlan::none`]) injects nothing and is guaranteed
/// not to perturb a single random draw of the fault-free simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Baseline packet-loss probability on every inter-node link.
    pub loss: f64,
    /// Transient degradation windows.
    pub degradations: Vec<LinkDegradation>,
    /// Straggler nodes.
    pub stragglers: Vec<Straggler>,
    /// Permanent rank crashes.
    pub crashes: Vec<RankCrash>,
    /// Scheduled corruptions of durable checkpoint writes. These
    /// exercise the checkpoint store's verify-and-fall-back path and
    /// never perturb simulation timing (see [`StorageFaultKind`]).
    pub storage: Vec<StorageFault>,
    /// Scheduled silent-data-corruption bit flips in the replicated MD
    /// arrays (see [`SdcFault`]). Applied by the MD driver, not the
    /// engine: they perturb physics, never timing or RNG draws.
    pub sdc: Vec<SdcFault>,
    /// Retransmission rounds before a *payload* message is dropped and
    /// replaced by a tombstone. `None` (the default) models a reliable
    /// TCP-like transport: payloads always arrive, arbitrarily late.
    /// Control messages never give up regardless of this setting.
    pub max_retransmits: Option<u32>,
    /// Receiver-side watchdog timeout, seconds (see
    /// `DEFAULT_WATCHDOG_TIMEOUT`).
    pub watchdog_timeout: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no loss, no degradation, no stragglers, no
    /// crashes. Bit-identical to running without fault machinery.
    pub fn none() -> Self {
        FaultPlan {
            loss: 0.0,
            degradations: Vec::new(),
            stragglers: Vec::new(),
            crashes: Vec::new(),
            storage: Vec::new(),
            sdc: Vec::new(),
            max_retransmits: None,
            watchdog_timeout: DEFAULT_WATCHDOG_TIMEOUT,
        }
    }

    /// Sets the baseline inter-node packet-loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Adds a degradation window.
    pub fn with_degradation(mut self, d: LinkDegradation) -> Self {
        self.degradations.push(d);
        self
    }

    /// Marks `node` as a *persistent* straggler with the given CPU
    /// slowdown factor (slow from the first instruction to the last).
    pub fn with_straggler(mut self, node: usize, slowdown: f64) -> Self {
        self.stragglers.push(Straggler {
            node,
            slowdown,
            start: 0.0,
            end: f64::MAX,
        });
        self
    }

    /// Marks `node` as a *transient* straggler during `[start, end)`
    /// virtual seconds.
    pub(crate) fn with_straggler_window(
        mut self,
        node: usize,
        slowdown: f64,
        start: f64,
        end: f64,
    ) -> Self {
        self.stragglers.push(Straggler {
            node,
            slowdown,
            start,
            end,
        });
        self
    }

    /// Schedules a permanent crash of `rank` at virtual time `at`.
    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(RankCrash { rank, at });
        self
    }

    /// Schedules a storage fault against the next durable checkpoint
    /// write at or after virtual time `at`.
    pub fn with_storage_fault(mut self, at: f64, kind: StorageFaultKind) -> Self {
        self.storage.push(StorageFault { at, kind });
        self
    }

    /// Schedules a silent-data-corruption bit flip (see [`SdcFault`]).
    pub fn with_sdc(mut self, fault: SdcFault) -> Self {
        self.sdc.push(fault);
        self
    }

    /// True when the plan cannot perturb the simulation's *timing* at
    /// all. Storage and SDC faults are deliberately excluded: they
    /// corrupt durable artifacts or replicated state on the side but
    /// never consume an RNG draw or charge virtual time, so timing
    /// stays bit-identical either way.
    pub(crate) fn is_zero(&self) -> bool {
        self.loss <= 0.0
            && self.degradations.is_empty()
            && self.stragglers.is_empty()
            && self.crashes.is_empty()
    }

    /// The storage-fault schedule sorted by trigger time (ties keep
    /// plan order), ready for one-shot consumption by a checkpoint
    /// store.
    pub fn storage_schedule(&self) -> Vec<StorageFault> {
        let mut schedule = self.storage.clone();
        schedule.sort_by(|a, b| a.at.total_cmp(&b.at));
        schedule
    }

    /// The SDC schedule sorted by step (ties keep plan order), ready
    /// for one-shot consumption by the MD driver.
    pub fn sdc_schedule(&self) -> Vec<SdcFault> {
        let mut schedule = self.sdc.clone();
        schedule.sort_by_key(|s| s.step);
        schedule
    }

    /// Validates the plan against a cluster of `ranks` ranks and
    /// `nodes` nodes.
    pub fn validate(&self, ranks: usize, nodes: usize) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss probability {} outside [0, 1]", self.loss));
        }
        if !(self.watchdog_timeout.is_finite() && self.watchdog_timeout >= 0.0) {
            return Err(format!(
                "watchdog timeout {} must be finite and >= 0",
                self.watchdog_timeout
            ));
        }
        for d in &self.degradations {
            if !(d.start.is_finite() && d.end.is_finite() && d.start <= d.end) {
                return Err(format!(
                    "degradation window [{}, {}) is not a valid interval",
                    d.start, d.end
                ));
            }
            if !(0.0..=1.0).contains(&d.extra_loss) {
                return Err(format!("extra loss {} outside [0, 1]", d.extra_loss));
            }
            if !(d.wire_factor.is_finite() && d.wire_factor > 0.0) {
                return Err(format!(
                    "wire factor {} must be finite and > 0",
                    d.wire_factor
                ));
            }
            for r in [d.src, d.dst].into_iter().flatten() {
                if r >= ranks {
                    return Err(format!(
                        "degradation names rank {r} of a {ranks}-rank cluster"
                    ));
                }
            }
        }
        for s in &self.stragglers {
            if s.node >= nodes {
                return Err(format!(
                    "straggler names node {} of a {nodes}-node cluster",
                    s.node
                ));
            }
            if !(s.slowdown.is_finite() && s.slowdown >= 1.0) {
                return Err(format!("straggler slowdown {} must be >= 1", s.slowdown));
            }
            if !(s.start.is_finite() && s.end.is_finite() && 0.0 <= s.start && s.start <= s.end) {
                return Err(format!(
                    "straggler window [{}, {}) is not a valid interval",
                    s.start, s.end
                ));
            }
        }
        for c in &self.crashes {
            if c.rank >= ranks {
                return Err(format!(
                    "crash names rank {} of a {ranks}-rank cluster",
                    c.rank
                ));
            }
            if !(c.at.is_finite() && c.at >= 0.0) {
                return Err(format!("crash time {} must be finite and >= 0", c.at));
            }
        }
        for s in &self.storage {
            if !(s.at.is_finite() && s.at >= 0.0) {
                return Err(format!(
                    "storage fault time {} must be finite and >= 0",
                    s.at
                ));
            }
            match s.kind {
                StorageFaultKind::TornWrite { keep_frac } => {
                    if !(0.0..1.0).contains(&keep_frac) {
                        return Err(format!(
                            "torn-write keep fraction {keep_frac} outside [0, 1)"
                        ));
                    }
                }
                StorageFaultKind::BitFlip { bit, .. } => {
                    if bit >= 8 {
                        return Err(format!("bit-flip bit index {bit} outside 0..8"));
                    }
                }
                StorageFaultKind::Missing => {}
            }
        }
        for s in &self.sdc {
            if s.step == 0 {
                return Err("SDC step index is 1-based; step 0 is never computed".into());
            }
            if s.axis >= 3 {
                return Err(format!("SDC axis {} outside 0..3", s.axis));
            }
            if s.bit >= 64 {
                return Err(format!("SDC bit index {} outside 0..64", s.bit));
            }
        }
        Ok(())
    }

    /// Resolves the fault state of the `src -> dst` link at departure
    /// time `t`. Loss applies only to inter-node traffic; degradation
    /// wire factors apply everywhere.
    pub(crate) fn link_fault(&self, src: usize, dst: usize, t: f64, same_node: bool) -> LinkFault {
        let mut loss = if same_node { 0.0 } else { self.loss };
        let mut wire_factor = 1.0;
        for d in &self.degradations {
            if d.matches(src, dst, t) {
                if !same_node {
                    loss += d.extra_loss;
                }
                wire_factor *= d.wire_factor;
            }
        }
        let (max_retransmits, give_up) = match self.max_retransmits {
            Some(k) => (k.min(MAX_RETRANSMIT_ROUNDS), true),
            None => (MAX_RETRANSMIT_ROUNDS, false),
        };
        LinkFault {
            loss: loss.min(1.0),
            wire_factor,
            max_retransmits,
            give_up,
        }
    }

    /// CPU slowdown factor of `node` at virtual time `t` (`1.0` when no
    /// straggler window is active). Windows are half-open, like
    /// [`LinkDegradation`]: active while `start <= t < end`.
    pub(crate) fn straggle_factor_at(&self, node: usize, t: f64) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.node == node && s.start <= t && t < s.end)
            .map(|s| s.slowdown)
            .fold(1.0, f64::max)
    }

    /// Earliest scheduled crash time of `rank`, if any.
    pub(crate) fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_zero_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_zero());
        assert!(p.validate(8, 8).is_ok());
        let f = p.link_fault(0, 1, 10.0, false);
        assert_eq!((f.loss, f.wire_factor), (0.0, 1.0));
        assert_eq!(p.straggle_factor_at(3, 0.0), 1.0);
        assert_eq!(p.crash_time(3), None);
    }

    #[test]
    fn loss_is_inter_node_only() {
        let p = FaultPlan::none().with_loss(0.2);
        assert_eq!(p.link_fault(0, 1, 0.0, false).loss, 0.2);
        assert_eq!(p.link_fault(0, 1, 0.0, true).loss, 0.0);
    }

    #[test]
    fn degradation_window_is_half_open_and_scoped() {
        let p = FaultPlan::none().with_degradation(LinkDegradation {
            start: 1.0,
            end: 2.0,
            extra_loss: 0.5,
            wire_factor: 3.0,
            src: Some(0),
            dst: None,
        });
        let hit = p.link_fault(0, 1, 1.5, false);
        assert_eq!(hit.loss, 0.5);
        assert_eq!(hit.wire_factor, 3.0);
        let clean = (0.0, 1.0);
        let past = p.link_fault(0, 1, 2.0, false);
        assert_eq!((past.loss, past.wire_factor), clean); // past the window
        let other = p.link_fault(1, 0, 1.5, false);
        assert_eq!((other.loss, other.wire_factor), clean); // wrong src
    }

    #[test]
    fn straggle_factor_takes_worst_entry() {
        let p = FaultPlan::none()
            .with_straggler(1, 2.0)
            .with_straggler(1, 4.0);
        assert_eq!(p.straggle_factor_at(1, 0.0), 4.0);
        assert_eq!(p.straggle_factor_at(0, 0.0), 1.0);
    }

    #[test]
    fn persistent_stragglers_cover_all_of_time() {
        let p = FaultPlan::none().with_straggler(1, 3.0);
        assert_eq!(p.straggle_factor_at(1, 0.0), 3.0);
        assert_eq!(p.straggle_factor_at(1, 1e12), 3.0);
        assert_eq!(p.straggle_factor_at(0, 5.0), 1.0);
    }

    #[test]
    fn transient_straggler_window_is_half_open() {
        let p = FaultPlan::none().with_straggler_window(2, 2.5, 1.0, 3.0);
        assert_eq!(p.straggle_factor_at(2, 0.5), 1.0);
        assert_eq!(p.straggle_factor_at(2, 1.0), 2.5);
        assert_eq!(p.straggle_factor_at(2, 2.999), 2.5);
        assert_eq!(p.straggle_factor_at(2, 3.0), 1.0);
        assert!(p.validate(4, 4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_straggler_windows() {
        for bad in [
            FaultPlan::none().with_straggler_window(0, 2.0, 3.0, 1.0),
            FaultPlan::none().with_straggler_window(0, 2.0, -1.0, 1.0),
            FaultPlan::none().with_straggler_window(0, 2.0, f64::NAN, 1.0),
            FaultPlan::none().with_straggler_window(0, 2.0, 0.0, f64::INFINITY),
        ] {
            assert!(bad.validate(4, 4).is_err(), "{:?}", bad.stragglers);
        }
    }

    #[test]
    fn crash_time_takes_earliest() {
        let p = FaultPlan::none().with_crash(2, 5.0).with_crash(2, 3.0);
        assert_eq!(p.crash_time(2), Some(3.0));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::none().with_loss(1.5).validate(4, 4).is_err());
        assert!(FaultPlan::none().with_crash(9, 1.0).validate(4, 4).is_err());
        assert!(FaultPlan::none()
            .with_straggler(9, 2.0)
            .validate(4, 4)
            .is_err());
        assert!(FaultPlan::none()
            .with_straggler(0, 0.5)
            .validate(4, 4)
            .is_err());
        assert!(FaultPlan::none()
            .with_degradation(LinkDegradation::global(2.0, 1.0, 0.0, 1.0))
            .validate(4, 4)
            .is_err());
    }

    #[test]
    fn storage_faults_do_not_make_a_plan_nonzero() {
        let p = FaultPlan::none().with_storage_fault(1.0, StorageFaultKind::Missing);
        assert!(p.is_zero(), "storage faults never perturb timing");
        assert!(p.validate(4, 4).is_ok());
    }

    #[test]
    fn storage_schedule_is_time_sorted() {
        let p = FaultPlan::none()
            .with_storage_fault(3.0, StorageFaultKind::Missing)
            .with_storage_fault(1.0, StorageFaultKind::TornWrite { keep_frac: 0.5 })
            .with_storage_fault(2.0, StorageFaultKind::BitFlip { byte: 7, bit: 3 });
        let at: Vec<f64> = p.storage_schedule().iter().map(|s| s.at).collect();
        assert_eq!(at, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn validate_rejects_bad_storage_faults() {
        for bad in [
            FaultPlan::none().with_storage_fault(f64::NAN, StorageFaultKind::Missing),
            FaultPlan::none().with_storage_fault(-1.0, StorageFaultKind::Missing),
            FaultPlan::none()
                .with_storage_fault(0.0, StorageFaultKind::TornWrite { keep_frac: 1.0 }),
            FaultPlan::none()
                .with_storage_fault(0.0, StorageFaultKind::BitFlip { byte: 0, bit: 8 }),
        ] {
            assert!(bad.validate(4, 4).is_err(), "{:?}", bad.storage);
        }
    }

    #[test]
    fn sdc_faults_do_not_make_a_plan_nonzero() {
        let p = FaultPlan::none().with_sdc(SdcFault {
            step: 3,
            target: SdcTarget::Forces,
            atom: 17,
            axis: 1,
            bit: 52,
        });
        assert!(p.is_zero(), "SDC never perturbs timing");
        assert!(p.validate(4, 4).is_ok());
    }

    #[test]
    fn sdc_schedule_is_step_sorted_and_validated() {
        let p = FaultPlan::none()
            .with_sdc(SdcFault {
                step: 5,
                target: SdcTarget::Positions,
                atom: 0,
                axis: 0,
                bit: 0,
            })
            .with_sdc(SdcFault {
                step: 2,
                target: SdcTarget::Forces,
                atom: 1,
                axis: 2,
                bit: 63,
            });
        let steps: Vec<u64> = p.sdc_schedule().iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![2, 5]);
        for bad in [
            SdcFault {
                step: 0,
                target: SdcTarget::Forces,
                atom: 0,
                axis: 0,
                bit: 0,
            },
            SdcFault {
                step: 1,
                target: SdcTarget::Forces,
                atom: 0,
                axis: 3,
                bit: 0,
            },
            SdcFault {
                step: 1,
                target: SdcTarget::Forces,
                atom: 0,
                axis: 0,
                bit: 64,
            },
        ] {
            assert!(
                FaultPlan::none().with_sdc(bad).validate(4, 4).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn bounded_retransmits_cap_at_hard_limit() {
        let p = FaultPlan {
            max_retransmits: Some(1000),
            ..FaultPlan::none().with_loss(0.5)
        };
        let f = p.link_fault(0, 1, 0.0, false);
        assert_eq!(f.max_retransmits, MAX_RETRANSMIT_ROUNDS);
        assert!(f.give_up);
        let reliable = FaultPlan::none()
            .with_loss(0.5)
            .link_fault(0, 1, 0.0, false);
        assert!(!reliable.give_up);
    }
}
