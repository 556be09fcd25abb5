//! Seeded, fully deterministic fault-schedule generator for chaos
//! campaigns.
//!
//! A [`FaultSpace`] describes the envelope of one workload (ranks,
//! nodes, MD steps, fault-free wall-clock horizon, atom count);
//! [`FaultSpace::sample`] draws an arbitrary [`FaultPlan`] from it,
//! keyed only by `(seed, index)` through the same [`SplitMix64`]
//! streams the engine uses — schedule `i` of a campaign is the same
//! plan on every machine, every run, forever.
//!
//! The sampled subspace is **survivable by construction**, because a
//! chaos campaign asserts that every sampled schedule upholds the
//! recovery invariants (zero oracle violations over thousands of
//! schedules):
//!
//! * the transport never gives up (`max_retransmits` stays `None`), so
//!   collectives built on infallible receives cannot deadlock;
//! * crashes always leave at least one survivor;
//! * SDC bit flips are drawn from three classes — *benign* (low
//!   mantissa bits, relative error below ~1e-10), *detectable* (the
//!   top exponent bit of a position, which teleports an atom by at
//!   least 2 Å or blows the coordinate up entirely), and
//!   *undetectable* (every bit in the gray zone between them, where
//!   the perturbation is too small for the numerical watchdog yet far
//!   above round-off). The gray zone was excluded from sampling until
//!   the ABFT layer (`cpc-charmm::recover`, `AbftConfig`) existed to
//!   catch it; an armed campaign now asserts that every sampled gray
//!   flip is detected and repaired.
//!
//! Known-unsurvivable plans (the "planted bugs" that validate the
//! oracles and the minimizer) are constructed by hand or scanned out
//! of the sampled stream, not special-cased.

use crate::faults::{
    FaultPlan, LinkDegradation, SdcFault, SdcTarget, StorageFaultKind, DEFAULT_WATCHDOG_TIMEOUT,
};
use crate::rng::SplitMix64;

/// Highest mantissa bit the *benign* SDC class may flip: a flip at or
/// below this bit changes the value by a relative factor of at most
/// `2^(BENIGN_MAX_BIT - 52)` (~6e-11), far below any physical signal
/// in a short trajectory.
pub const BENIGN_MAX_BIT: u8 = 16;

/// The bit the *detectable* SDC class flips: the most significant
/// exponent bit (62), and only ever in a **position** array. Whichever
/// state the bit is in, the flip moves the atom by at least 2 Å:
///
/// * bit set (`|x| >= 2`): the exponent drops by 1024, collapsing the
///   coordinate to a subnormal — a displacement of `|x| >= 2` Å;
/// * bit clear (`|x| < 2`): the exponent rises by 1024, landing at
///   `>= 2` (a zero coordinate becomes exactly 2.0; anything larger
///   overflows toward `2^1007`, infinity, or NaN).
///
/// A single atom teleporting >= 2 Å inside a bonded topology stretches
/// its bonds/angles by over an ångström, a potential-energy jump of
/// hundreds of kcal/mol that the numerical watchdog's drift check (or
/// its non-finite check) classifies as a blow-up on the same step.
/// Force arrays have no such lever — a force component whose exponent
/// *collapses* perturbs one half-kick by an amount that is neither
/// detectable nor benign — so the detectable class never targets them.
///
/// Detectable flips are additionally never scheduled on step 1: the
/// drift check compares against the first recorded step's energy, so
/// it needs one clean step to establish its reference. A flip that
/// corrupts the reference itself can evade the watchdog long enough to
/// be checkpointed (the chaos campaign's first catch — exactly the
/// kind of schedule that belongs in a hand-planted reproducer, not the
/// survivable sample space).
pub const DETECTABLE_BIT: u8 = 62;

/// The three silent-data-corruption classes [`FaultSpace::sample`]
/// draws from, recovered from a sampled fault by [`sdc_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcClass {
    /// Low mantissa bits (`<=` [`BENIGN_MAX_BIT`]): relative error
    /// below ~6e-11, physically indistinguishable from round-off.
    Benign,
    /// [`DETECTABLE_BIT`] on a position: guaranteed to trip the
    /// numerical watchdog on the same step.
    Detectable,
    /// Everything in between — large enough to corrupt the physics,
    /// too small for the watchdog. Only the ABFT checksums catch it.
    Undetectable,
}

/// Classifies a fault into the class [`FaultSpace::sample`] drew it
/// from (the classification is total: hand-built faults classify too).
pub fn sdc_class(fault: &SdcFault) -> SdcClass {
    if fault.bit <= BENIGN_MAX_BIT {
        SdcClass::Benign
    } else if fault.bit == DETECTABLE_BIT && fault.target == SdcTarget::Positions {
        SdcClass::Detectable
    } else {
        SdcClass::Undetectable
    }
}

/// The envelope a chaos campaign samples fault schedules from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpace {
    /// Ranks of the cluster under test.
    pub ranks: usize,
    /// Nodes of the cluster under test.
    pub nodes: usize,
    /// MD steps of the workload (bounds SDC step indices).
    pub steps: u64,
    /// Fault-free wall-clock horizon, virtual seconds (time-triggered
    /// faults are drawn from `[0, ~1.2 * horizon]`).
    pub horizon: f64,
    /// Atom count of the workload (bounds SDC atom indices).
    pub atoms: usize,
}

impl FaultSpace {
    /// Describes the fault space of one workload.
    pub fn new(ranks: usize, nodes: usize, steps: u64, horizon: f64, atoms: usize) -> Self {
        FaultSpace {
            ranks,
            nodes,
            steps,
            horizon,
            atoms,
        }
    }

    /// Draws schedule `index` of the campaign keyed by `seed`. Pure:
    /// the same `(space, seed, index)` always yields the same plan, and
    /// the returned plan always validates against the space's cluster.
    pub fn sample(&self, seed: u64, index: u64) -> FaultPlan {
        // A dedicated channel per schedule: src/dst are fixed sentinels
        // outside any real rank pair's key space usage, the campaign
        // index is the counter.
        let mut rng = SplitMix64::for_message(seed, 0xC4A0, 0x5D0C, index);
        let mut plan = FaultPlan::none();

        // Baseline loss on roughly half the schedules, mild enough that
        // the reliable transport always delivers eventually.
        if rng.next_f64() < 0.5 {
            plan.loss = 0.01 + 0.11 * rng.next_f64();
        }

        // Up to two degradation windows inside the horizon.
        for _ in 0..self.choose(&mut rng, 3) {
            let start = self.horizon * rng.next_f64();
            let len = 0.4 * self.horizon * rng.next_f64();
            plan.degradations.push(LinkDegradation::global(
                start,
                start + len,
                0.3 * rng.next_f64(),
                1.0 + 3.0 * rng.next_f64(),
            ));
        }

        // Up to two straggler nodes, drawn from two classes so every
        // rung of the degradation ladder is exercised: *transient*
        // windows inside the horizon (absorbed by rebalancing, then
        // rebalanced back), and *persistent* whole-run slowdowns of up
        // to 4x (the severe tail crosses the eviction threshold).
        for _ in 0..self.choose(&mut rng, 3) {
            let node = (rng.next_u64() as usize) % self.nodes;
            if rng.next_f64() < 0.5 {
                let slowdown = 1.25 + 1.75 * rng.next_f64();
                let start = self.horizon * rng.next_f64();
                let len = (0.2 + 0.6 * rng.next_f64()) * self.horizon;
                plan = plan.with_straggler_window(node, slowdown, start, start + len);
            } else {
                plan = plan.with_straggler(node, 1.25 + 2.75 * rng.next_f64());
            }
        }

        // Crashes: always leave at least one survivor. Distinct ranks,
        // times spread slightly past the horizon (a crash after the
        // fault-free finish exercises the tail of the run).
        let max_crashes = self.ranks.saturating_sub(1).min(2);
        let n_crashes = self.choose(&mut rng, max_crashes as u64 + 1) as usize;
        let mut crashed: Vec<usize> = Vec::new();
        while crashed.len() < n_crashes {
            let rank = (rng.next_u64() as usize) % self.ranks;
            if !crashed.contains(&rank) {
                crashed.push(rank);
                plan = plan.with_crash(rank, 1.2 * self.horizon * rng.next_f64());
            }
        }

        // Up to two storage faults against durable checkpoint writes.
        for _ in 0..self.choose(&mut rng, 3) {
            let at = self.horizon * rng.next_f64();
            let kind = match rng.next_u64() % 3 {
                0 => StorageFaultKind::TornWrite {
                    keep_frac: 0.9 * rng.next_f64(),
                },
                1 => StorageFaultKind::BitFlip {
                    byte: rng.next_u64() as usize % (1 << 20),
                    bit: (rng.next_u64() % 8) as u8,
                },
                _ => StorageFaultKind::Missing,
            };
            plan = plan.with_storage_fault(at, kind);
        }

        // Up to two SDC flips drawn evenly from the three classes. The
        // detectable class is positions-only at DETECTABLE_BIT (see its
        // doc for the guarantee); the benign class may hit either
        // array's low mantissa bits; the undetectable class covers the
        // whole gray zone in between (plus the sign bit) on either
        // array — the flips only the ABFT checksums can catch.
        for _ in 0..self.choose(&mut rng, 3) {
            let class = match rng.next_u64() % 3 {
                1 if self.steps >= 2 => SdcClass::Detectable,
                0 | 1 => SdcClass::Benign,
                _ => SdcClass::Undetectable,
            };
            let (target, bit) = match class {
                SdcClass::Detectable => (SdcTarget::Positions, DETECTABLE_BIT),
                SdcClass::Benign => {
                    let target = if rng.next_u64().is_multiple_of(2) {
                        SdcTarget::Positions
                    } else {
                        SdcTarget::Forces
                    };
                    (target, (rng.next_u64() % (BENIGN_MAX_BIT as u64 + 1)) as u8)
                }
                SdcClass::Undetectable => {
                    if rng.next_u64().is_multiple_of(2) {
                        // Positions: 17..=61 plus the sign bit (62 is
                        // the detectable class, not this one).
                        let bit = 17 + (rng.next_u64() % 46) as u8;
                        let bit = if bit == DETECTABLE_BIT { 63 } else { bit };
                        (SdcTarget::Positions, bit)
                    } else {
                        // Forces: every high bit is gray — even an
                        // exponent collapse only perturbs one
                        // half-kick (see DETECTABLE_BIT).
                        (SdcTarget::Forces, 17 + (rng.next_u64() % 47) as u8)
                    }
                }
            };
            // Detectable flips start at step 2: the watchdog needs one
            // clean step for its energy reference (see DETECTABLE_BIT).
            let step = if class == SdcClass::Detectable {
                2 + rng.next_u64() % (self.steps - 1)
            } else {
                1 + rng.next_u64() % self.steps.max(1)
            };
            plan = plan.with_sdc(SdcFault {
                step,
                target,
                atom: rng.next_u64() as usize % self.atoms.max(1),
                axis: (rng.next_u64() % 3) as u8,
                bit,
            });
        }

        plan.watchdog_timeout = DEFAULT_WATCHDOG_TIMEOUT;
        debug_assert!(
            plan.validate(self.ranks, self.nodes).is_ok(),
            "sampled plan must validate: {:?}",
            plan.validate(self.ranks, self.nodes)
        );
        plan
    }

    /// Uniform draw in `0..n` (0 when `n == 0`), biased toward small
    /// counts by squaring: most schedules carry a few events, the tail
    /// carries the maximum.
    fn choose(&self, rng: &mut SplitMix64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let u = rng.next_f64();
        ((u * u) * n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> FaultSpace {
        FaultSpace::new(4, 4, 8, 2.0, 100)
    }

    #[test]
    fn sampling_is_deterministic_in_seed_and_index() {
        let s = space();
        for i in 0..20 {
            assert_eq!(s.sample(7, i), s.sample(7, i));
        }
        let distinct = (0..20)
            .filter(|&i| s.sample(7, i) != s.sample(8, i))
            .count();
        assert!(distinct > 10, "seed must drive the draw");
    }

    #[test]
    fn sampled_plans_validate_and_stay_survivable() {
        let s = space();
        for i in 0..200 {
            let plan = s.sample(42, i);
            plan.validate(s.ranks, s.nodes).unwrap();
            assert!(plan.max_retransmits.is_none(), "transport never gives up");
            let crashed: std::collections::HashSet<usize> =
                plan.crashes.iter().map(|c| c.rank).collect();
            assert!(crashed.len() < s.ranks, "at least one survivor");
            for st in &plan.stragglers {
                assert!(
                    (st.start == 0.0 && st.end == f64::MAX)
                        || (st.end.is_finite() && st.end <= 2.0 * s.horizon),
                    "straggler is either persistent or windowed in the horizon: {st:?}"
                );
            }
            for sdc in &plan.sdc {
                assert!(sdc.bit <= 63, "SDC {sdc:?} flips a real f64 bit");
                assert!((1..=s.steps).contains(&sdc.step));
                match sdc_class(sdc) {
                    SdcClass::Benign => assert!(sdc.bit <= BENIGN_MAX_BIT),
                    SdcClass::Detectable => {
                        assert_eq!(sdc.target, SdcTarget::Positions);
                        assert!(
                            sdc.step >= 2,
                            "detectable flips need a clean reference step: {sdc:?}"
                        );
                    }
                    SdcClass::Undetectable => {
                        // Gray flips never collide with the detectable
                        // class: position bit 62 always classifies as
                        // Detectable, so the sampler must avoid it.
                        assert!(sdc.bit > BENIGN_MAX_BIT);
                        assert!(
                            sdc.target == SdcTarget::Forces || sdc.bit != DETECTABLE_BIT,
                            "gray position flip drew the detectable bit: {sdc:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_space_is_actually_explored() {
        let s = space();
        let plans: Vec<FaultPlan> = (0..300).map(|i| s.sample(2002, i)).collect();
        assert!(plans.iter().any(|p| p.loss > 0.0));
        assert!(plans.iter().any(|p| !p.degradations.is_empty()));
        assert!(plans.iter().any(|p| !p.stragglers.is_empty()));
        assert!(
            plans
                .iter()
                .any(|p| p.stragglers.iter().any(|s| s.end == f64::MAX)),
            "persistent straggler class is sampled"
        );
        assert!(
            plans
                .iter()
                .any(|p| p.stragglers.iter().any(|s| s.end < f64::MAX)),
            "transient straggler class is sampled"
        );
        assert!(plans.iter().any(|p| !p.crashes.is_empty()));
        assert!(plans.iter().any(|p| !p.storage.is_empty()));
        assert!(plans.iter().any(|p| !p.sdc.is_empty()));
        assert!(
            plans
                .iter()
                .any(|p| p.sdc.iter().any(|f| f.bit == DETECTABLE_BIT)),
            "detectable SDC class is sampled"
        );
        assert!(
            plans
                .iter()
                .any(|p| p.sdc.iter().any(|f| f.bit <= BENIGN_MAX_BIT)),
            "benign SDC class is sampled"
        );
        let gray: Vec<&SdcFault> = plans
            .iter()
            .flat_map(|p| &p.sdc)
            .filter(|f| sdc_class(f) == SdcClass::Undetectable)
            .collect();
        assert!(!gray.is_empty(), "undetectable SDC class is sampled");
        assert!(
            gray.iter().any(|f| f.target == SdcTarget::Positions)
                && gray.iter().any(|f| f.target == SdcTarget::Forces),
            "gray flips hit both arrays"
        );
    }

    #[test]
    fn sdc_classification_is_total_and_matches_the_constants() {
        let f = |target, bit| SdcFault {
            step: 1,
            target,
            atom: 0,
            axis: 0,
            bit,
        };
        assert_eq!(sdc_class(&f(SdcTarget::Forces, 0)), SdcClass::Benign);
        assert_eq!(
            sdc_class(&f(SdcTarget::Positions, BENIGN_MAX_BIT)),
            SdcClass::Benign
        );
        assert_eq!(
            sdc_class(&f(SdcTarget::Positions, DETECTABLE_BIT)),
            SdcClass::Detectable
        );
        // Bit 62 on a *force* is gray: the detectable guarantee only
        // holds for positions.
        assert_eq!(
            sdc_class(&f(SdcTarget::Forces, DETECTABLE_BIT)),
            SdcClass::Undetectable
        );
        for bit in (BENIGN_MAX_BIT + 1)..=63 {
            if bit == DETECTABLE_BIT {
                continue;
            }
            assert_eq!(
                sdc_class(&f(SdcTarget::Positions, bit)),
                SdcClass::Undetectable,
                "bit {bit}"
            );
        }
    }
}
