//! Durable checkpoint store: atomic writes, generation rotation, and
//! checksum-verified restore with generation-by-generation fallback.
//!
//! The in-memory checkpoints of [`crate::recover`] survive rank
//! crashes (the surviving *processes* hold the state) but not a full
//! process restart. This store persists each checkpoint as an
//! [`MdSnapshot`] container on disk:
//!
//! * **Atomicity** — every write goes through
//!   [`cpc_vfs::atomic_publish`]: a temporary file in the same
//!   directory, `fsync`ed, renamed over the final name, and the
//!   directory `fsync`ed — with every failure, *including the
//!   directory fsync*, propagated to the caller (a swallowed dir-fsync
//!   error would let a checkpoint silently fail to survive power
//!   loss). A crash mid-write leaves either the old generation or the
//!   new one, never a half-file (unless a scheduled
//!   [`StorageFaultKind::TornWrite`] models exactly that).
//! * **Rotation** — only the newest `keep` generations are retained,
//!   bounding disk use over arbitrarily long campaigns.
//! * **Verified fallback** — restore walks generations newest-first,
//!   decoding and checksum-verifying each; corrupt or truncated files
//!   are skipped (with a `FallbackNote` saying why) until an intact
//!   snapshot is found.
//!
//! Storage faults from a [`FaultPlan`](cpc_cluster::FaultPlan) are
//! applied here, deterministically, at write time: on a save at
//! virtual time `now`, every scheduled fault with `at <= now` that has
//! not fired yet corrupts *this* write. No RNG draw is consumed and no
//! virtual time is charged, so a storage-fault plan can never perturb
//! the simulation's calibrated timing.

use cpc_cluster::{StorageFault, StorageFaultKind};
use cpc_md::{MdSnapshot, SnapshotError};
use cpc_vfs::{real_fs, SharedFs};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// File extension of stored snapshot generations.
pub(crate) const CHECKPOINT_EXT: &str = "cpcsnap";

/// Result of a newest-first restore walk: the first intact
/// `(generation, snapshot)` if any, plus a note for every generation
/// skipped on the way down.
pub(crate) type RestoreOutcome = (Option<(u64, MdSnapshot)>, Vec<FallbackNote>);

/// Configuration of the durable checkpoint layer of a fault-tolerant
/// run (see [`crate::recover::FaultConfig::durable`]).
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory the generations live in (created if absent).
    pub dir: PathBuf,
    /// Number of newest generations retained on disk.
    pub keep: usize,
    /// When true, the run first restores the newest intact snapshot
    /// from `dir` and continues from it instead of starting at step 0.
    pub resume: bool,
}

impl DurableConfig {
    /// Durable checkpointing into `dir` keeping 3 generations, no
    /// resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            keep: 3,
            resume: false,
        }
    }

    /// Sets the number of retained generations (minimum 1).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Requests resume-from-disk at run start.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// Why a generation was skipped during a fallback restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FallbackNote {
    /// Generation (step index) of the skipped snapshot.
    pub generation: u64,
    /// Human-readable cause: checksum mismatch, truncation, I/O error.
    pub reason: String,
}

/// Typed failure of a strict restore (see
/// [`CheckpointStore::restore_strict`]).
#[derive(Debug)]
pub(crate) enum RestoreError {
    /// The store directory itself could not be read.
    Io(io::Error),
    /// Generations were present on disk but every one of them failed
    /// to decode or verify: the durable state is unrecoverable and the
    /// run must be classified as diverged, not silently restarted.
    NoIntactGeneration {
        /// One note per corrupt generation, newest first.
        notes: Vec<FallbackNote>,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "checkpoint store unreadable: {e}"),
            RestoreError::NoIntactGeneration { notes } => {
                write!(
                    f,
                    "all {} checkpoint generations are corrupt ({})",
                    notes.len(),
                    notes
                        .iter()
                        .map(|n| format!("gen {}: {}", n.generation, n.reason))
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// Typed failure of a durable checkpoint save. Every phase of the
/// publish is distinguished so callers can tell a snapshot that never
/// reached disk from one that reached disk but may not survive power
/// loss — the directory-fsync failure this store used to swallow with
/// `let _ = d.sync_all()`.
#[derive(Debug)]
pub enum SaveError {
    /// Writing, fsyncing, or renaming the snapshot failed: the new
    /// generation is not on disk (the old one, if any, still is).
    Publish(io::Error),
    /// The directory fsync after the rename failed: the bytes are
    /// fsynced but the *name* may not survive power loss, so the
    /// generation cannot be trusted durable.
    DirSync(io::Error),
    /// Deleting rotated-out generations failed; the new generation is
    /// durable but the store exceeds its retention bound.
    Rotate(io::Error),
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaveError::Publish(e) => write!(f, "checkpoint publish failed: {e}"),
            SaveError::DirSync(e) => {
                write!(
                    f,
                    "checkpoint directory fsync failed (rename not durable): {e}"
                )
            }
            SaveError::Rotate(e) => write!(f, "checkpoint rotation failed: {e}"),
        }
    }
}

impl std::error::Error for SaveError {}

impl SaveError {
    /// The underlying I/O error, whatever the phase.
    pub fn io(&self) -> &io::Error {
        match self {
            SaveError::Publish(e) | SaveError::DirSync(e) | SaveError::Rotate(e) => e,
        }
    }
}

/// A directory of rotated, checksummed snapshot generations.
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    fs: SharedFs,
    keep: usize,
    /// Scheduled corruptions, ascending by trigger time; drained from
    /// the front as writes consume them.
    fault_schedule: Vec<StorageFault>,
    /// Index of the next unfired fault. Shared (see
    /// [`with_fault_cursor`](Self::with_fault_cursor)) so that when
    /// several store instances model the *same* disk — one per rank,
    /// with the writer role moving after a crash — each scheduled
    /// fault corrupts exactly one write plan-wide, not one write per
    /// writer. Writers are serialized by the MD driver (only the
    /// lowest live member saves), so plain load/store ordering is
    /// enough.
    next_fault: Arc<AtomicUsize>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("keep", &self.keep)
            .field("fault_schedule", &self.fault_schedule)
            .finish()
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a store in `dir` retaining `keep`
    /// generations, on the real filesystem.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        Self::open_on(real_fs(), dir, keep)
    }

    /// Opens a store on an injected filesystem.
    pub fn open_on(fs: SharedFs, dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            fs,
            keep: keep.max(1),
            fault_schedule: Vec::new(),
            next_fault: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Attaches a storage-fault schedule whose consumption cursor is
    /// shared with other store instances. Per-rank stores of one run
    /// all point at the same directory — the same modeled disk — and
    /// the writer role migrates when the writing rank crashes; sharing
    /// the cursor keeps each scheduled fault to exactly one fired
    /// corruption plan-wide instead of re-firing under every new
    /// writer.
    pub(crate) fn with_fault_cursor(
        mut self,
        schedule: Vec<StorageFault>,
        cursor: Arc<AtomicUsize>,
    ) -> Self {
        self.fault_schedule = schedule;
        self.next_fault = cursor;
        self
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("ckpt-{generation:010}.{CHECKPOINT_EXT}"))
    }

    /// Generations currently on disk, ascending.
    pub(crate) fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for path in self.fs.read_dir(&self.dir)? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(&format!(".{CHECKPOINT_EXT}")))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Durably writes `snapshot` as generation `snapshot.step`,
    /// applying any storage faults due at virtual time `now`, then
    /// rotates old generations. Returns the final path (which may not
    /// exist if a [`StorageFaultKind::Missing`] fault fired). Every
    /// failure — including the directory fsync that makes the rename
    /// durable — propagates as a typed [`SaveError`].
    pub fn save(&mut self, snapshot: &MdSnapshot, now: f64) -> Result<PathBuf, SaveError> {
        let mut bytes = snapshot.encode();
        let mut missing = false;
        let mut pos = self.next_fault.load(Ordering::Acquire);
        while pos < self.fault_schedule.len() && self.fault_schedule[pos].at <= now {
            let fault = self.fault_schedule[pos];
            pos += 1;
            match fault.kind {
                StorageFaultKind::TornWrite { keep_frac } => {
                    let cut = (bytes.len() as f64 * keep_frac) as usize;
                    bytes.truncate(cut);
                }
                StorageFaultKind::BitFlip { byte, bit } => {
                    if !bytes.is_empty() {
                        let idx = byte % bytes.len();
                        bytes[idx] ^= 1 << (bit & 7);
                    }
                }
                StorageFaultKind::Missing => missing = true,
            }
        }
        self.next_fault.store(pos, Ordering::Release);

        let path = self.path_for(snapshot.step);
        if missing {
            // The write is lost entirely; a stale same-generation file
            // would mask the loss, so remove it.
            let _ = self.fs.remove_file(&path);
        } else {
            cpc_vfs::atomic_publish_phased(self.fs.as_ref(), &path, &bytes).map_err(|e| match e
                .phase
            {
                cpc_vfs::PublishPhase::DirSync => SaveError::DirSync(e.error),
                _ => SaveError::Publish(e.error),
            })?;
        }
        self.rotate().map_err(SaveError::Rotate)?;
        Ok(path)
    }

    fn rotate(&self) -> io::Result<()> {
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for &g in &gens[..gens.len() - self.keep] {
                self.fs.remove_file(&self.path_for(g))?;
            }
        }
        Ok(())
    }

    /// Restores a specific generation, verifying every checksum.
    pub(crate) fn restore_generation(&self, generation: u64) -> Result<MdSnapshot, FallbackNote> {
        let path = self.path_for(generation);
        let bytes = self.fs.read(&path).map_err(|e| FallbackNote {
            generation,
            reason: format!("read failed: {e}"),
        })?;
        MdSnapshot::decode(&bytes).map_err(|e: SnapshotError| FallbackNote {
            generation,
            reason: e.to_string(),
        })
    }

    /// Walks generations newest-first and returns the first one that
    /// decodes and verifies, together with notes on every generation
    /// skipped on the way. `Ok(None)` means no intact snapshot exists.
    pub(crate) fn restore_newest_intact(&self) -> io::Result<RestoreOutcome> {
        let mut notes = Vec::new();
        for &g in self.generations()?.iter().rev() {
            match self.restore_generation(g) {
                Ok(snapshot) => return Ok((Some((g, snapshot)), notes)),
                Err(note) => notes.push(note),
            }
        }
        Ok((None, notes))
    }

    /// Like [`restore_newest_intact`](Self::restore_newest_intact),
    /// but distinguishes "nothing was ever written" (`Ok(None)`, a
    /// fresh start is legitimate) from "generations exist and all are
    /// corrupt" ([`RestoreError::NoIntactGeneration`], the run must be
    /// classified as unrecoverable rather than silently restarted from
    /// step 0).
    pub(crate) fn restore_strict(&self) -> Result<Option<(u64, MdSnapshot)>, RestoreError> {
        let (hit, notes) = self.restore_newest_intact()?;
        match hit {
            Some(found) => Ok(Some(found)),
            None if notes.is_empty() => Ok(None),
            None => Err(RestoreError::NoIntactGeneration { notes }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::FaultPlan;
    use cpc_md::builder::water_box;
    use cpc_md::Vec3;
    use std::fs;

    fn snap(step: u64, mark: f64) -> MdSnapshot {
        let sys = water_box(2, 3.1);
        let forces = vec![Vec3::splat(mark); sys.n_atoms()];
        MdSnapshot::capture(&sys, &forces, step)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_restore_roundtrip_and_rotation() {
        let dir = tmp_dir("rotate");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for step in 0..5u64 {
            store.save(&snap(step, step as f64), step as f64).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
        let (hit, notes) = store.restore_newest_intact().unwrap();
        let (gen, restored) = hit.expect("newest generation is intact");
        assert_eq!(gen, 4);
        assert_eq!(restored.forces[0], Vec3::splat(4.0));
        assert!(notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_newest_falls_back_to_previous_generation() {
        let dir = tmp_dir("fallback");
        let plan = FaultPlan::none()
            .with_storage_fault(2.0, StorageFaultKind::BitFlip { byte: 999, bit: 2 });
        let mut store = CheckpointStore::open(&dir, 3)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), Default::default());
        store.save(&snap(1, 1.0), 1.0).unwrap(); // clean
        store.save(&snap(2, 2.0), 2.5).unwrap(); // bit-flipped
        let (hit, notes) = store.restore_newest_intact().unwrap();
        let (gen, restored) = hit.expect("generation 1 is intact");
        assert_eq!(gen, 1);
        assert_eq!(restored.forces[0], Vec3::splat(1.0));
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].generation, 2);
        assert!(
            notes[0].reason.contains("checksum"),
            "reason: {}",
            notes[0].reason
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_and_missing_faults() {
        let dir = tmp_dir("torn");
        let plan = FaultPlan::none()
            .with_storage_fault(1.0, StorageFaultKind::TornWrite { keep_frac: 0.3 })
            .with_storage_fault(2.0, StorageFaultKind::Missing);
        let mut store = CheckpointStore::open(&dir, 3)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), Default::default());
        store.save(&snap(0, 0.0), 0.0).unwrap(); // clean: before any fault
        store.save(&snap(1, 1.0), 1.0).unwrap(); // torn
        store.save(&snap(2, 2.0), 2.0).unwrap(); // missing
        assert_eq!(store.generations().unwrap(), vec![0, 1]);
        let (hit, notes) = store.restore_newest_intact().unwrap();
        let (gen, _) = hit.expect("generation 0 is intact");
        assert_eq!(gen, 0);
        assert_eq!(notes.len(), 1, "torn generation 1 was skipped");
        assert!(notes[0].reason.contains("truncated"), "{}", notes[0].reason);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error_not_a_panic() {
        // Every retained generation damaged, one variant each: torn
        // write, bit flip, and a vanished file.
        let dir = tmp_dir("allcorrupt");
        let plan = FaultPlan::none()
            .with_storage_fault(1.0, StorageFaultKind::TornWrite { keep_frac: 0.4 })
            .with_storage_fault(2.0, StorageFaultKind::BitFlip { byte: 123, bit: 5 })
            .with_storage_fault(3.0, StorageFaultKind::Missing);
        let mut store = CheckpointStore::open(&dir, 3)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), Default::default());
        store.save(&snap(1, 1.0), 1.0).unwrap(); // torn
        store.save(&snap(2, 2.0), 2.0).unwrap(); // bit-flipped
        store.save(&snap(3, 3.0), 3.0).unwrap(); // missing
        assert_eq!(store.generations().unwrap(), vec![1, 2]);

        // The lenient walk reports "nothing intact" with notes...
        let (hit, notes) = store.restore_newest_intact().unwrap();
        assert!(hit.is_none());
        assert_eq!(notes.len(), 2, "both surviving files noted as corrupt");

        // ...while the strict walk returns the typed error.
        match store.restore_strict() {
            Err(RestoreError::NoIntactGeneration { notes }) => {
                assert_eq!(notes.len(), 2);
                assert!(notes.iter().any(|n| n.reason.contains("truncated")));
                assert!(notes.iter().any(|n| n.reason.contains("checksum")));
            }
            other => panic!("expected NoIntactGeneration, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_generations_missing_is_also_unrecoverable() {
        // Every write eaten by a Missing fault: the directory exists
        // and is empty, which is indistinguishable from a fresh start,
        // so strict restore reports Ok(None) — the caller decides
        // whether an expected-nonempty store being empty is fatal.
        let dir = tmp_dir("allmissing");
        let plan = FaultPlan::none()
            .with_storage_fault(0.0, StorageFaultKind::Missing)
            .with_storage_fault(1.0, StorageFaultKind::Missing);
        let mut store = CheckpointStore::open(&dir, 3)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), Default::default());
        store.save(&snap(1, 0.5), 0.5).unwrap();
        store.save(&snap(2, 1.5), 1.5).unwrap();
        assert!(store.generations().unwrap().is_empty());
        assert!(store.restore_strict().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_restore_passes_through_an_intact_older_generation() {
        let dir = tmp_dir("strictok");
        let plan = FaultPlan::none()
            .with_storage_fault(2.0, StorageFaultKind::BitFlip { byte: 50, bit: 1 });
        let mut store = CheckpointStore::open(&dir, 3)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), Default::default());
        store.save(&snap(1, 1.0), 1.0).unwrap(); // clean
        store.save(&snap(2, 2.0), 2.0).unwrap(); // corrupt
        let (gen, restored) = store.restore_strict().unwrap().expect("gen 1 intact");
        assert_eq!(gen, 1);
        assert_eq!(restored.forces[0], Vec3::splat(1.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_cursor_fires_each_fault_once_across_writers() {
        // Two store instances modeling the same disk (as two ranks of
        // one run do): a fault consumed by the first writer must not
        // re-fire when the writer role migrates to the second.
        let dir = tmp_dir("sharedcursor");
        let plan = FaultPlan::none()
            .with_storage_fault(1.0, StorageFaultKind::TornWrite { keep_frac: 0.2 });
        let cursor = Arc::new(AtomicUsize::new(0));
        let mut writer_a = CheckpointStore::open(&dir, 4)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), cursor.clone());
        let mut writer_b = CheckpointStore::open(&dir, 4)
            .unwrap()
            .with_fault_cursor(plan.storage_schedule(), cursor.clone());
        writer_a.save(&snap(1, 1.0), 1.5).unwrap(); // fault fires here
        writer_b.save(&snap(2, 2.0), 2.5).unwrap(); // must stay clean
        let (hit, notes) = writer_b.restore_newest_intact().unwrap();
        let (gen, _) = hit.expect("generation 2 written after handover is intact");
        assert_eq!(gen, 2);
        assert!(notes.is_empty(), "newest generation decodes first");
        assert_eq!(cursor.load(Ordering::Acquire), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_fsync_failure_is_a_typed_error_not_swallowed() {
        use cpc_vfs::{DiskFault, DiskFaultPlan, SimFs};
        // Regression for the old `let _ = d.sync_all()`: a failing
        // directory fsync after the rename must surface as
        // SaveError::DirSync, because the rename may not survive power
        // loss and the checkpoint cannot be reported durable. A
        // fault-free probe finds the dir fsync's op index (the last op
        // a save issues; rotation reads but never writes here).
        let dir_sync_at = {
            let fs = Arc::new(SimFs::new());
            let mut store = CheckpointStore::open_on(fs.clone(), "ckpt", 3).unwrap();
            store.save(&snap(1, 1.0), 1.0).unwrap();
            fs.op_count()
        };
        let plan = DiskFaultPlan::none().with(DiskFault::EioFsync { at: dir_sync_at });
        let fs = Arc::new(SimFs::with_plan(&plan));
        let mut store = CheckpointStore::open_on(fs, "ckpt", 3).unwrap();
        match store.save(&snap(1, 1.0), 1.0) {
            Err(SaveError::DirSync(e)) => assert!(cpc_vfs::is_eio(&e), "{e}"),
            other => panic!("expected SaveError::DirSync, got {other:?}"),
        }
    }

    #[test]
    fn every_crash_point_of_a_save_sequence_leaves_a_restorable_store() {
        use cpc_vfs::{explore_crashes, SimFs};
        // Power-cut two consecutive saves at every filesystem op: the
        // surviving store must always restore cleanly — the newest
        // intact generation or a legitimate fresh start, never an
        // all-corrupt store and never a panic.
        let work = |fs: &SimFs| -> std::io::Result<()> {
            let fs = Arc::new(fs.clone());
            let mut store = CheckpointStore::open_on(fs, "ckpt", 2)
                .map_err(|e| io::Error::other(e.to_string()))?;
            for step in 1..=2u64 {
                store
                    .save(&snap(step, step as f64), step as f64)
                    .map_err(|e| match e {
                        SaveError::Publish(e) | SaveError::DirSync(e) | SaveError::Rotate(e) => e,
                    })?;
            }
            Ok(())
        };
        let check = |fs: &SimFs| -> Result<(), String> {
            let fs = Arc::new(fs.clone());
            let store = CheckpointStore::open_on(fs, "ckpt", 2).map_err(|e| e.to_string())?;
            match store.restore_strict() {
                Ok(Some((g, s))) => {
                    if s.forces[0] == Vec3::splat(g as f64) {
                        Ok(())
                    } else {
                        Err(format!("generation {g} restored with foreign payload"))
                    }
                }
                Ok(None) => Ok(()), // nothing durable yet: fresh start
                Err(e) => Err(format!("store unrecoverable after crash: {e}")),
            }
        };
        let report = explore_crashes(work, check).unwrap();
        assert!(
            report.ops >= 10,
            "two full atomic publishes, got {}",
            report.ops
        );
    }

    #[test]
    fn empty_store_restores_nothing() {
        let dir = tmp_dir("empty");
        let store = CheckpointStore::open(&dir, 1).unwrap();
        let (hit, notes) = store.restore_newest_intact().unwrap();
        assert!(hit.is_none());
        assert!(notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
