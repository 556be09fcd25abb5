//! Disk fault schedules: the data model [`SimFs`](crate::SimFs)
//! interprets. The sampler that draws these deterministically lives
//! with its siblings in `cpc-chaos` (`DiskFaultSpace`); the types
//! live here so the filesystem can interpret a plan.

use serde::{Deserialize, Serialize};

/// One scheduled disk fault. `at` is an index into the filesystem's
/// mutating-operation stream (creates, writes, fsyncs, renames,
/// removes, dir-syncs, counted in order): the fault arms immediately
/// and fires at the first *matching* operation whose index is `>= at`,
/// then disarms. Indexing by op rather than by wall time keeps
/// schedules deterministic across refactors of everything above the
/// filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiskFault {
    /// The disk fills at op `at` and frees itself `ops` operations
    /// later: every create/write attempt in the window fails ENOSPC
    /// (failed attempts advance the op counter, so the window always
    /// closes).
    EnospcTransient { at: u64, ops: u64 },
    /// The disk fills at op `at` and stays full until the driver lifts
    /// it (`SimFs::lift_enospc`) — the schedule under which services
    /// must quiesce and gateways must shed, then resume byte-identical
    /// once space returns.
    EnospcPersistent { at: u64 },
    /// The next write at/after op `at` fails EIO; no bytes land.
    EioWrite { at: u64 },
    /// The next file fsync at/after op `at` fails EIO — the fsyncgate
    /// case: the file's dirty bytes are dropped (marked clean by the
    /// kernel) and the file is poisoned; a later fsync would report
    /// success for data that is gone.
    EioFsync { at: u64 },
    /// The next write at/after op `at` writes only a `keep_frac`
    /// prefix of the buffer and returns the short count.
    ShortWrite { at: u64, keep_frac: f64 },
    /// The next rename at/after op `at` fails; the namespace is
    /// unchanged.
    RenameFail { at: u64 },
    /// Power is cut at op `at` (the op itself fails and every
    /// operation after it until `SimFs::restart`): all unsynced bytes
    /// vanish and un-dir-synced creates/renames revert. With `reorder`
    /// set, each file independently keeps a prefix of its unsynced
    /// writes (chosen from `keep_seed`) and possibly a torn partial
    /// write — modeling writeback reordering across files, which is
    /// exactly the case "my last fsync covered file A, surely file B
    /// landed too" gets wrong.
    PowerLoss {
        at: u64,
        reorder: bool,
        keep_seed: u64,
    },
}

impl DiskFault {
    /// The op index at/after which the fault fires.
    pub fn at(&self) -> u64 {
        match *self {
            DiskFault::EnospcTransient { at, .. }
            | DiskFault::EnospcPersistent { at }
            | DiskFault::EioWrite { at }
            | DiskFault::EioFsync { at }
            | DiskFault::ShortWrite { at, .. }
            | DiskFault::RenameFail { at }
            | DiskFault::PowerLoss { at, .. } => at,
        }
    }
}

/// A deterministic disk fault schedule, interpreted by [`SimFs`](crate::SimFs).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DiskFaultPlan {
    /// The scheduled faults. Order is irrelevant (each arms on its own
    /// op index); multiple faults may be armed at once.
    pub faults: Vec<DiskFault>,
}

impl DiskFaultPlan {
    /// The empty schedule.
    pub fn none() -> Self {
        DiskFaultPlan::default()
    }

    /// Adds a fault.
    pub fn with(mut self, fault: DiskFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan schedules a persistent ENOSPC (the driver must
    /// plan to lift it).
    pub fn has_persistent_enospc(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, DiskFault::EnospcPersistent { .. }))
    }

    /// Validates bounds: fractions in [0, 1], transient windows
    /// non-empty.
    pub fn validate(&self) -> Result<(), String> {
        for f in &self.faults {
            match *f {
                DiskFault::ShortWrite { keep_frac, .. } if !(0.0..=1.0).contains(&keep_frac) => {
                    return Err(format!("short-write keep_frac {keep_frac} outside [0, 1]"));
                }
                DiskFault::EnospcTransient { ops: 0, .. } => {
                    return Err("transient ENOSPC window must cover at least one op".into());
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = DiskFaultPlan::none()
            .with(DiskFault::EnospcTransient { at: 3, ops: 5 })
            .with(DiskFault::EioFsync { at: 9 })
            .with(DiskFault::PowerLoss {
                at: 20,
                reorder: true,
                keep_seed: 0xBEEF,
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: DiskFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(!plan.has_persistent_enospc());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        assert!(DiskFaultPlan::none()
            .with(DiskFault::ShortWrite {
                at: 1,
                keep_frac: 1.5
            })
            .validate()
            .is_err());
        assert!(DiskFaultPlan::none()
            .with(DiskFault::EnospcTransient { at: 1, ops: 0 })
            .validate()
            .is_err());
    }
}
