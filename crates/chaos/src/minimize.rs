//! The cross-layer minimizer and the replayable reproducer it emits.

use crate::plan::{ComposedPlan, Layer, LAYERS};
use cpc_charmm::{ddmin, minimize};
use serde::{Deserialize, Serialize};

/// [`ddmin`] over the fault list `faults` projects out of a plan, when
/// `layer` is still armed: the step phase 1 of [`minimize_composed`]
/// takes for every layer whose schedule is a plain list of faults.
fn ddmin_faults<E: Clone>(
    current: &mut ComposedPlan,
    layer: Layer,
    faults: fn(&mut ComposedPlan) -> &mut Vec<E>,
    fails: &mut impl FnMut(&ComposedPlan) -> bool,
    probes: &mut usize,
) {
    if !current.armed(layer) {
        return;
    }
    let mut probe = current.clone();
    let kept = ddmin(
        faults(current).clone(),
        |kept| {
            *faults(&mut probe) = kept.to_vec();
            fails(&probe)
        },
        probes,
    );
    *faults(current) = kept;
}

/// Cross-layer delta-debugging minimization: given a composed plan
/// whose schedule makes `fails` return true, returns a (locally)
/// minimal composed plan that still fails, plus the number of probes
/// spent.
///
/// Phase 0 triages **whole layers**: in [`LAYERS`] order, to a
/// fixpoint, each armed layer is masked out and the mask kept
/// whenever the failure persists — masking is a pure projection
/// (per-layer sub-channels), so dropping one layer never perturbs
/// another's events. Phase 1 then runs ddmin over the event list of
/// each surviving layer (the MD layer additionally gets the scalar
/// severity-halving pass of [`minimize`]). The empty schedule is
/// never probed: removing a layer's every event is the layer-drop
/// probe, which phase 0 already refuted for surviving layers.
pub fn minimize_composed<F>(plan: &ComposedPlan, mut fails: F) -> (ComposedPlan, usize)
where
    F: FnMut(&ComposedPlan) -> bool,
{
    let mut current = plan.clone();
    let mut probes = 0usize;

    // Phase 0: drop whole layers.
    loop {
        let mut changed = false;
        for layer in LAYERS {
            if !current.armed(layer) {
                continue;
            }
            let candidate = current.masked(current.mask.without(layer));
            if candidate.armed_layers().is_empty() {
                continue;
            }
            probes += 1;
            if fails(&candidate) {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 1: ddmin events within each surviving layer.
    if current.armed(Layer::Md) {
        let base = current.clone();
        let (md, md_probes) = minimize(&current.md, |candidate| {
            let mut probe = base.clone();
            probe.md = candidate.clone();
            fails(&probe)
        });
        current.md = md;
        probes += md_probes;
    }
    let (fails, probes) = (&mut fails, &mut probes);
    ddmin_faults(
        &mut current,
        Layer::Service,
        |p| &mut p.service.faults,
        fails,
        probes,
    );
    ddmin_faults(
        &mut current,
        Layer::Transport,
        |p| &mut p.transport.faults,
        fails,
        probes,
    );
    ddmin_faults(
        &mut current,
        Layer::Disk,
        |p| &mut p.disk.faults,
        fails,
        probes,
    );
    ddmin_faults(
        &mut current,
        Layer::Sched,
        |p| &mut p.sched.faults,
        fails,
        probes,
    );

    (current, *probes)
}

/// A minimized failing composed schedule — or a deliberately pinned
/// passing one — serialized as a replayable corpus artifact
/// (`reproducers/*.json`). Replay reconstructs the same campaign
/// workload, drives [`run_composed_chaos`](crate::run_composed_chaos) under
/// [`CrossReproducer::plan`], and asserts the verdict matches
/// [`CrossReproducer::expect_fail`]; determinism makes the verdict
/// JSON byte-identical on every replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossReproducer {
    /// Campaign seed the schedule was sampled with (0 for
    /// hand-planted schedules).
    pub seed: u64,
    /// Campaign index of the schedule.
    pub index: u64,
    /// Cells of the serve-backed campaign.
    pub cells: usize,
    /// Cluster ranks of the MD workload.
    pub ranks: usize,
    /// Cluster nodes of the MD workload.
    pub nodes: usize,
    /// MD steps of the workload.
    pub steps: usize,
    /// Whether the MD layer ran with ABFT checksums armed — replay
    /// must match (an armed engine repairs the very corruptions a
    /// disarmed-engine reproducer provokes).
    pub abft: bool,
    /// Corpus expectation: `true` pins a regression (replay must
    /// still fail), `false` pins determinism (replay must pass, with
    /// a byte-identical verdict).
    pub expect_fail: bool,
    /// Armed fault events remaining after minimization.
    pub events: usize,
    /// Oracle probes the minimizer spent.
    pub probes: usize,
    /// The violations the plan provokes (Debug-rendered, stable).
    pub violations: Vec<String>,
    /// The minimized composed plan (mask included).
    pub plan: ComposedPlan,
}

impl CrossReproducer {
    /// Serializes the reproducer as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("cross reproducer serializes")
    }

    /// Parses a reproducer back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CrossViolation, DiskViolation};

    #[test]
    fn composed_minimizer_drops_layers_then_events() {
        use crate::plan::{ServiceFault, TransportFault};
        use cpc_pool::SchedFault;
        use cpc_vfs::DiskFault;

        let mut plan = ComposedPlan::quiet(4);
        plan.md.loss = 0.05;
        plan.service.faults = vec![ServiceFault::StaleLease { at_lease: 1 }];
        plan.transport.faults = vec![TransportFault::MalformedRequest { variant: 0 }];
        plan.disk.faults = vec![
            DiskFault::ShortWrite {
                at: 1,
                keep_frac: 0.5,
            },
            DiskFault::EioWrite { at: 3 },
            DiskFault::RenameFail { at: 5 },
        ];
        plan.sched.faults = vec![SchedFault::TaskPanic { at_start: 2 }];

        // The "bug": any schedule whose *effective* disk layer still
        // contains the EioWrite fails.
        let fails = |p: &ComposedPlan| {
            p.effective()
                .disk
                .faults
                .iter()
                .any(|f| matches!(f, DiskFault::EioWrite { .. }))
        };
        let (minimized, probes) = minimize_composed(&plan, fails);
        assert!(probes >= 4, "layer drops alone need 4+ probes");
        assert_eq!(
            minimized.armed_layers(),
            vec![Layer::Disk],
            "every other layer must be masked out"
        );
        assert_eq!(
            minimized.disk.faults,
            vec![DiskFault::EioWrite { at: 3 }],
            "ddmin must isolate the one deciding event"
        );
        assert_eq!(minimized.events(), 1);
        // Masking is a projection: the untouched layers' schedules
        // survive in the reproducer for forensics.
        assert_eq!(minimized.service.faults, plan.service.faults);
        assert_eq!(minimized.md.loss, plan.md.loss);
    }

    #[test]
    fn cross_reproducer_round_trips_and_violations_render() {
        let repro = CrossReproducer {
            seed: 7,
            index: 3,
            cells: 6,
            ranks: 4,
            nodes: 4,
            steps: 8,
            abft: true,
            expect_fail: false,
            events: 2,
            probes: 11,
            violations: vec![],
            plan: ComposedPlan::quiet(2),
        };
        let back = CrossReproducer::from_json(&repro.to_json()).unwrap();
        assert_eq!(back, repro);

        // A reordering power cut's keep-seed is a raw `u64`: half of
        // them have the top bit set, and the replayed cut must be the
        // recorded one, not its nearest `f64`.
        let mut cut = repro.clone();
        cut.plan.disk.faults.push(cpc_vfs::DiskFault::PowerLoss {
            at: 60,
            reorder: true,
            keep_seed: u64::MAX - 1,
        });
        let back = CrossReproducer::from_json(&cut.to_json()).unwrap();
        assert_eq!(back, cut);

        let v = CrossViolation::DrainedArtifactDiverged {
            artifact: Some(1),
            reference: Some(2),
        };
        assert!(v.to_string().contains("drained artifact"));
        let lifted = CrossViolation::Disk {
            violation: DiskViolation::AckedThenLost { lost: 2 },
        };
        assert!(lifted.to_string().starts_with("disk: "));
    }
}
