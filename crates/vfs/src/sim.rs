//! A deterministic in-memory filesystem with an explicit page-cache
//! model and injectable disk faults.
//!
//! The durability model is adversarial POSIX:
//!
//! * A file's bytes survive power loss only up to its last successful
//!   fsync. Everything after is page cache and vanishes.
//! * A directory entry (create, rename, remove) survives power loss
//!   only if the *directory* was fsynced afterwards — an fsynced file
//!   whose parent directory was never synced simply does not exist
//!   after the cut.
//! * A failed fsync drops the file's dirty bytes and poisons the file
//!   (the fsyncgate model: the kernel reports the writeback error
//!   once, marks the pages clean, and a retried fsync happily returns
//!   success for data that is gone). [`SimFs`] counts any rename that
//!   publishes a poisoned file, and the disk-chaos oracles convict on
//!   a nonzero count.
//!
//! Faults come from a [`DiskFaultPlan`] indexed by the mutating-op
//! counter, so the same plan against the same workload fails at the
//! same byte every time.

use crate::{eio_error, enospc_error, fnv1a64, DiskFault, DiskFaultPlan, Fs, VfsFile};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The error every operation returns after a simulated power cut and
/// before [`SimFs::restart`].
pub(crate) fn power_cut_error() -> io::Error {
    io::Error::other("simulated power cut")
}

/// Whether an error is the simulated power cut (the driver's signal
/// to end the incarnation and restart from durable state).
pub(crate) fn is_power_cut(e: &io::Error) -> bool {
    e.get_ref()
        .map(|r| r.to_string() == "simulated power cut")
        .unwrap_or(false)
}

/// Counters the simulated disk accumulates; the disk-chaos ledger
/// copies them verbatim so the oracles can see what actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskCounters {
    /// Mutating operations attempted (the fault-schedule index space).
    pub ops: u64,
    /// Creates/writes refused with ENOSPC.
    pub enospc_failures: u64,
    /// Writes failed with EIO (no bytes landed).
    pub eio_write_failures: u64,
    /// Fsyncs failed with EIO (dirty bytes dropped, file poisoned).
    pub eio_fsync_failures: u64,
    /// Writes that landed short.
    pub short_writes: u64,
    /// Renames that failed.
    pub rename_failures: u64,
    /// Power cuts applied.
    pub power_losses: u64,
    /// Renames that published a poisoned file — post-failed-fsync
    /// trust, always an oracle violation.
    pub poisoned_publishes: u64,
    /// Bytes that were in page cache and vanished at power cuts.
    pub unsynced_bytes_lost: u64,
}

/// One dirty (unsynced) extent beyond the synced prefix.
#[derive(Debug, Clone, Copy)]
struct Seg {
    len: usize,
}

#[derive(Debug, Default)]
struct Node {
    data: Vec<u8>,
    /// Durable prefix length (bytes covered by the last fsync).
    synced: usize,
    /// Dirty extents beyond `synced`, in write order.
    segs: Vec<Seg>,
    /// A fsync on this file failed at some point: its content has a
    /// silent gap and must never be published.
    poisoned: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Create,
    Write,
    Sync,
    Rename,
    Remove,
    SyncDir,
    Mkdir,
}

struct State {
    nodes: HashMap<u64, Node>,
    next_id: u64,
    /// The live namespace: what open/read/rename see.
    ns: BTreeMap<PathBuf, u64>,
    /// The durable namespace: entries whose parent directory was
    /// fsynced after the last change. Power loss reverts `ns` to this.
    durable_ns: BTreeMap<PathBuf, u64>,
    dirs: BTreeSet<PathBuf>,
    faults: Vec<(DiskFault, bool)>,
    enospc_persistent: bool,
    enospc_until: Option<u64>,
    crashed: bool,
    counters: DiskCounters,
}

impl State {
    fn new(plan: &DiskFaultPlan) -> Self {
        State {
            nodes: HashMap::new(),
            next_id: 1,
            ns: BTreeMap::new(),
            durable_ns: BTreeMap::new(),
            dirs: BTreeSet::new(),
            faults: plan.faults.iter().map(|f| (*f, false)).collect(),
            enospc_persistent: false,
            enospc_until: None,
            crashed: false,
            counters: DiskCounters::default(),
        }
    }

    fn enospc_active(&self) -> bool {
        self.enospc_persistent
            || self
                .enospc_until
                .is_some_and(|until| self.counters.ops < until)
    }

    /// Advances the op counter, arms/fires state-level faults, and
    /// gates on power-off and ENOSPC. Called at the top of every
    /// mutating operation.
    fn begin_op(&mut self, kind: OpKind) -> io::Result<()> {
        if self.crashed {
            return Err(power_cut_error());
        }
        self.counters.ops += 1;
        let now = self.counters.ops;
        // Arm ENOSPC states due at or before this op.
        for i in 0..self.faults.len() {
            let (fault, fired) = self.faults[i];
            if fired || fault.at() > now {
                continue;
            }
            match fault {
                DiskFault::EnospcTransient { ops, .. } => {
                    self.enospc_until = Some(now + ops);
                    self.faults[i].1 = true;
                }
                DiskFault::EnospcPersistent { .. } => {
                    self.enospc_persistent = true;
                    self.faults[i].1 = true;
                }
                _ => {}
            }
        }
        // Power loss fires on any op kind.
        if let Some(i) = self.faults.iter().position(|(f, fired)| {
            !fired && f.at() <= now && matches!(f, DiskFault::PowerLoss { .. })
        }) {
            let fault = self.faults[i].0;
            self.faults[i].1 = true;
            if let DiskFault::PowerLoss {
                reorder, keep_seed, ..
            } = fault
            {
                self.power_cut(reorder, keep_seed);
            }
            return Err(power_cut_error());
        }
        if self.enospc_active() && matches!(kind, OpKind::Create | OpKind::Write | OpKind::Mkdir) {
            self.counters.enospc_failures += 1;
            return Err(enospc_error());
        }
        Ok(())
    }

    /// Consumes the first unfired fault due now for which `pick`
    /// returns true.
    fn take_fault(&mut self, pick: impl Fn(&DiskFault) -> bool) -> Option<DiskFault> {
        let now = self.counters.ops;
        let i = self
            .faults
            .iter()
            .position(|(f, fired)| !fired && f.at() <= now && pick(f))?;
        self.faults[i].1 = true;
        Some(self.faults[i].0)
    }

    /// Cuts power: reverts the namespace to the durable one and drops
    /// unsynced bytes (with `reorder`, each file independently keeps a
    /// deterministic prefix of its dirty extents, possibly torn).
    fn power_cut(&mut self, reorder: bool, keep_seed: u64) {
        self.counters.power_losses += 1;
        self.crashed = true;
        self.ns = self.durable_ns.clone();
        let live: BTreeSet<u64> = self.ns.values().copied().collect();
        self.nodes.retain(|id, _| live.contains(id));
        for (path, id) in self.ns.clone() {
            let Some(node) = self.nodes.get_mut(&id) else {
                continue;
            };
            let mut keep = 0usize;
            if reorder && !node.segs.is_empty() {
                let mut rng = splitmix(keep_seed ^ fnv1a64(path.to_string_lossy().as_bytes()));
                let k = (next(&mut rng) % (node.segs.len() as u64 + 1)) as usize;
                keep = node.segs[..k].iter().map(|s| s.len).sum();
                if k < node.segs.len() && next(&mut rng).is_multiple_of(2) {
                    // A torn extent: part of the next write landed.
                    keep += (next(&mut rng) % (node.segs[k].len as u64 + 1)) as usize;
                }
                keep = keep.min(node.data.len().saturating_sub(node.synced));
            }
            let survives = node.synced + keep;
            self.counters.unsynced_bytes_lost += (node.data.len() - survives) as u64;
            node.data.truncate(survives);
            // After reboot, what is on the platter is the new baseline.
            node.synced = node.data.len();
            node.segs.clear();
            node.poisoned = false;
        }
    }

    fn parent_exists(&self, path: &Path) -> bool {
        match path.parent() {
            None => true,
            Some(p) if p.as_os_str().is_empty() => true,
            Some(p) => self.dirs.contains(p),
        }
    }
}

fn splitmix(seed: u64) -> u64 {
    seed
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic simulated filesystem. Cloning shares the same
/// disk (it is an `Arc` around the state), which is how a "process
/// restart" sees the surviving bytes.
#[derive(Clone)]
pub struct SimFs {
    state: Arc<Mutex<State>>,
}

impl Default for SimFs {
    fn default() -> Self {
        Self::new()
    }
}

impl SimFs {
    /// An empty, fault-free disk.
    pub fn new() -> Self {
        Self::with_plan(&DiskFaultPlan::none())
    }

    /// An empty disk executing `plan`.
    pub fn with_plan(plan: &DiskFaultPlan) -> Self {
        SimFs {
            state: Arc::new(Mutex::new(State::new(plan))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("simfs state lock")
    }

    /// Mutating operations attempted so far.
    pub fn op_count(&self) -> u64 {
        self.lock().counters.ops
    }

    /// Counter snapshot.
    pub fn counters(&self) -> DiskCounters {
        self.lock().counters
    }

    /// Whether power is currently cut (every op fails until
    /// [`SimFs::restart`]).
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Whether the ENOSPC gate is currently refusing writes.
    pub fn enospc_active(&self) -> bool {
        self.lock().enospc_active()
    }

    /// Boots after a power cut: the surviving (durable) image becomes
    /// the live filesystem. Handles from before the cut are dead.
    pub fn restart(&self) {
        self.lock().crashed = false;
    }

    /// Frees the disk: lifts persistent *and* transient ENOSPC.
    pub fn lift_enospc(&self) {
        let mut st = self.lock();
        st.enospc_persistent = false;
        st.enospc_until = None;
    }

    /// Manually fills (or frees) the disk — the test/driver analogue
    /// of the sampled persistent fault.
    pub fn set_enospc(&self, full: bool) {
        let mut st = self.lock();
        st.enospc_persistent = full;
        if !full {
            st.enospc_until = None;
        }
    }

    /// Schedules an additional power cut at op `at` (1-based; the op
    /// with that index fails). The crash-point explorer's primitive.
    pub(crate) fn crash_at_op(&self, at: u64) {
        self.lock().faults.push((
            DiskFault::PowerLoss {
                at,
                reorder: false,
                keep_seed: 0,
            },
            false,
        ));
    }

    /// Cuts power immediately.
    pub fn power_cut_now(&self, reorder: bool, keep_seed: u64) {
        self.lock().power_cut(reorder, keep_seed);
    }

    /// Every file currently visible, with its content — sorted by
    /// path, for deterministic digests and audits.
    pub fn files(&self) -> Vec<(PathBuf, Vec<u8>)> {
        let st = self.lock();
        st.ns
            .iter()
            .map(|(p, id)| {
                (
                    p.clone(),
                    st.nodes.get(id).map(|n| n.data.clone()).unwrap_or_default(),
                )
            })
            .collect()
    }
}

struct SimHandle {
    state: Arc<Mutex<State>>,
    id: u64,
    offset: usize,
}

impl Write for SimHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock().expect("simfs state lock");
        st.begin_op(OpKind::Write)?;
        if st
            .take_fault(|f| matches!(f, DiskFault::EioWrite { .. }))
            .is_some()
        {
            st.counters.eio_write_failures += 1;
            return Err(eio_error());
        }
        let mut n = buf.len();
        if let Some(DiskFault::ShortWrite { keep_frac, .. }) =
            st.take_fault(|f| matches!(f, DiskFault::ShortWrite { .. }))
        {
            n = ((buf.len() as f64 * keep_frac) as usize).clamp(1, buf.len());
            st.counters.short_writes += 1;
        }
        let id = self.id;
        let offset = self.offset;
        let Some(node) = st.nodes.get_mut(&id) else {
            // The node died (power cut + reboot): a stale handle.
            return Err(eio_error());
        };
        if offset < node.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "in-place overwrite is outside the crash-safe model",
            ));
        }
        // A gap (the handle's offset survived a fsyncgate truncation)
        // fills with zeros — exactly the silent corruption a poisoned
        // file carries in real life.
        let start = node.data.len();
        let gap = offset - start;
        node.data.resize(offset, 0);
        node.data.extend_from_slice(&buf[..n]);
        node.segs.push(Seg { len: gap + n });
        self.offset += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for SimHandle {
    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("simfs state lock");
        st.begin_op(OpKind::Sync)?;
        let fired = st
            .take_fault(|f| matches!(f, DiskFault::EioFsync { .. }))
            .is_some();
        let id = self.id;
        let Some(node) = st.nodes.get_mut(&id) else {
            return Err(eio_error());
        };
        if fired {
            // Fsyncgate: the dirty pages are dropped and marked clean.
            // The handle's offset does NOT rewind — continued use of
            // this file leaves a zero gap where the lost bytes were.
            node.data.truncate(node.synced);
            node.segs.clear();
            node.poisoned = true;
            st.counters.eio_fsync_failures += 1;
            return Err(eio_error());
        }
        node.synced = node.data.len();
        node.segs.clear();
        Ok(())
    }
}

impl Fs for SimFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        st.begin_op(OpKind::Create)?;
        if !st.parent_exists(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no parent directory for {}", path.display()),
            ));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.nodes.insert(id, Node::default());
        st.ns.insert(path.to_path_buf(), id);
        Ok(Box::new(SimHandle {
            state: Arc::clone(&self.state),
            id,
            offset: 0,
        }))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        {
            let st = self.lock();
            if st.crashed {
                return Err(power_cut_error());
            }
            if let Some(&id) = st.ns.get(path) {
                let offset = st.nodes.get(&id).map(|n| n.data.len()).unwrap_or(0);
                return Ok(Box::new(SimHandle {
                    state: Arc::clone(&self.state),
                    id,
                    offset,
                }));
            }
        }
        self.create(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.lock();
        if st.crashed {
            return Err(power_cut_error());
        }
        let id = st.ns.get(path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", path.display()),
            )
        })?;
        Ok(st.nodes.get(id).map(|n| n.data.clone()).unwrap_or_default())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.begin_op(OpKind::Rename)?;
        if st
            .take_fault(|f| matches!(f, DiskFault::RenameFail { .. }))
            .is_some()
        {
            st.counters.rename_failures += 1;
            return Err(eio_error());
        }
        let id = st.ns.remove(from).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", from.display()),
            )
        })?;
        if st.nodes.get(&id).is_some_and(|n| n.poisoned) {
            st.counters.poisoned_publishes += 1;
        }
        st.ns.insert(to.to_path_buf(), id);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.begin_op(OpKind::SyncDir)?;
        if st
            .take_fault(|f| matches!(f, DiskFault::EioFsync { .. }))
            .is_some()
        {
            st.counters.eio_fsync_failures += 1;
            return Err(eio_error());
        }
        let under = |p: &Path| -> bool {
            match p.parent() {
                None => dir.as_os_str().is_empty(),
                Some(parent) => {
                    parent == dir || (parent.as_os_str().is_empty() && dir.as_os_str().is_empty())
                }
            }
        };
        let fresh: Vec<(PathBuf, u64)> = st
            .ns
            .iter()
            .filter(|(p, _)| under(p))
            .map(|(p, id)| (p.clone(), *id))
            .collect();
        st.durable_ns.retain(|p, _| !under(p));
        st.durable_ns.extend(fresh);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.begin_op(OpKind::Remove)?;
        st.ns.remove(path).map(|_| ()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", path.display()),
            )
        })
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.begin_op(OpKind::Mkdir)?;
        let mut p = PathBuf::new();
        for comp in dir.components() {
            p.push(comp);
            st.dirs.insert(p.clone());
        }
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.lock();
        if st.crashed {
            return Err(power_cut_error());
        }
        if !dir.as_os_str().is_empty() && !st.dirs.contains(dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", dir.display()),
            ));
        }
        let mut out: Vec<PathBuf> = st
            .ns
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect();
        out.extend(st.dirs.iter().filter(|p| p.parent() == Some(dir)).cloned());
        out.sort();
        out.dedup();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.lock();
        st.ns.contains_key(path) || st.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic_publish;

    fn fresh(plan: DiskFaultPlan) -> SimFs {
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap();
        fs
    }

    fn write_file(fs: &SimFs, path: &str, bytes: &[u8], sync: bool) -> io::Result<()> {
        let mut f = fs.create(Path::new(path))?;
        f.write_all(bytes)?;
        if sync {
            f.sync()?;
        }
        Ok(())
    }

    #[test]
    fn unsynced_bytes_vanish_at_power_cut_synced_survive() {
        let fs = fresh(DiskFaultPlan::none());
        let mut f = fs.create(Path::new("d/a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b" volatile").unwrap();
        drop(f);
        fs.sync_dir(Path::new("d")).unwrap();
        fs.power_cut_now(false, 0);
        fs.restart();
        assert_eq!(fs.read(Path::new("d/a")).unwrap(), b"durable");
        assert_eq!(fs.counters().unsynced_bytes_lost, 9);
    }

    #[test]
    fn a_created_file_without_dir_sync_does_not_survive() {
        let fs = fresh(DiskFaultPlan::none());
        write_file(&fs, "d/a", b"fsynced but unlinked-on-crash", true).unwrap();
        fs.power_cut_now(false, 0);
        fs.restart();
        assert!(
            !fs.exists(Path::new("d/a")),
            "entry never made durable: the parent directory was not synced"
        );
    }

    #[test]
    fn an_unsynced_rename_reverts_at_power_cut() {
        let fs = fresh(DiskFaultPlan::none());
        write_file(&fs, "d/x.tmp", b"v1", true).unwrap();
        fs.sync_dir(Path::new("d")).unwrap();
        fs.rename(Path::new("d/x.tmp"), Path::new("d/x")).unwrap();
        // No dir sync: the rename is only in the directory's cache.
        fs.power_cut_now(false, 0);
        fs.restart();
        assert!(!fs.exists(Path::new("d/x")), "rename reverted");
        assert_eq!(fs.read(Path::new("d/x.tmp")).unwrap(), b"v1");
    }

    #[test]
    fn atomic_publish_is_durable_once_it_returns() {
        let fs = fresh(DiskFaultPlan::none());
        atomic_publish(&fs, Path::new("d/meta.json"), b"{}").unwrap();
        fs.power_cut_now(false, 0);
        fs.restart();
        assert_eq!(fs.read(Path::new("d/meta.json")).unwrap(), b"{}");
    }

    #[test]
    fn enospc_transient_window_closes_on_its_own() {
        let plan = DiskFaultPlan::none().with(DiskFault::EnospcTransient { at: 1, ops: 3 });
        let fs = SimFs::with_plan(&plan);
        let e = fs.create_dir_all(Path::new("d")).unwrap_err();
        assert!(crate::is_enospc(&e));
        assert!(fs.enospc_active());
        let _ = fs.create_dir_all(Path::new("d"));
        let _ = fs.create_dir_all(Path::new("d"));
        // Window covered ops 2..4; the counter is past it now.
        fs.create_dir_all(Path::new("d")).unwrap();
        assert!(!fs.enospc_active());
        assert_eq!(fs.counters().enospc_failures, 3);
    }

    #[test]
    fn enospc_persistent_holds_until_lifted() {
        let plan = DiskFaultPlan::none().with(DiskFault::EnospcPersistent { at: 1 });
        let fs = SimFs::with_plan(&plan);
        for _ in 0..5 {
            assert!(crate::is_enospc(
                &fs.create_dir_all(Path::new("d")).unwrap_err()
            ));
        }
        fs.lift_enospc();
        fs.create_dir_all(Path::new("d")).unwrap();
        write_file(&fs, "d/a", b"after space returned", true).unwrap();
    }

    #[test]
    fn fsyncgate_poisons_and_a_poisoned_publish_is_counted() {
        // Ops: mkdir (1), create (2), write (3), sync (4) — the fault
        // fires on the fsync.
        let plan = DiskFaultPlan::none().with(DiskFault::EioFsync { at: 4 });
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap();
        let mut f = fs.create(Path::new("d/x.tmp")).unwrap();
        f.write_all(b"doomed").unwrap();
        let e = f.sync().unwrap_err();
        assert!(crate::is_eio(&e));
        // Retrying fsync "succeeds" — for a file whose bytes are gone.
        f.sync().unwrap();
        assert_eq!(fs.read(Path::new("d/x.tmp")).unwrap(), b"");
        // Publishing it anyway is the fsyncgate sin the oracle convicts.
        fs.rename(Path::new("d/x.tmp"), Path::new("d/x")).unwrap();
        assert_eq!(fs.counters().poisoned_publishes, 1);
        assert_eq!(fs.counters().eio_fsync_failures, 1);
    }

    #[test]
    fn continued_use_of_a_poisoned_file_leaves_a_zero_gap() {
        let plan = DiskFaultPlan::none().with(DiskFault::EioFsync { at: 4 });
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap();
        let mut f = fs.create(Path::new("d/j")).unwrap();
        f.write_all(b"AAAA").unwrap();
        let _ = f.sync().unwrap_err(); // drops AAAA, offset stays at 4
        f.write_all(b"BBBB").unwrap();
        f.sync().unwrap();
        assert_eq!(
            fs.read(Path::new("d/j")).unwrap(),
            b"\0\0\0\0BBBB",
            "the lost bytes became a silent zero gap"
        );
    }

    #[test]
    fn short_write_lands_a_prefix_and_reports_the_short_count() {
        let plan = DiskFaultPlan::none().with(DiskFault::ShortWrite {
            at: 3,
            keep_frac: 0.5,
        });
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap();
        let mut f = fs.create(Path::new("d/a")).unwrap();
        let n = f.write(b"12345678").unwrap();
        assert_eq!(n, 4);
        // write_all-style retry completes the buffer in a second extent.
        f.write_all(b"5678").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(Path::new("d/a")).unwrap(), b"12345678");
        assert_eq!(fs.counters().short_writes, 1);
    }

    #[test]
    fn rename_failure_leaves_the_namespace_unchanged() {
        let plan = DiskFaultPlan::none().with(DiskFault::RenameFail { at: 5 });
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap();
        write_file(&fs, "d/x.tmp", b"v", true).unwrap();
        let e = fs
            .rename(Path::new("d/x.tmp"), Path::new("d/x"))
            .unwrap_err();
        assert!(crate::is_eio(&e));
        assert!(fs.exists(Path::new("d/x.tmp")));
        assert!(!fs.exists(Path::new("d/x")));
        fs.rename(Path::new("d/x.tmp"), Path::new("d/x")).unwrap();
        assert_eq!(fs.read(Path::new("d/x")).unwrap(), b"v");
    }

    #[test]
    fn scheduled_power_loss_fires_once_and_ops_fail_until_restart() {
        let plan = DiskFaultPlan::none().with(DiskFault::PowerLoss {
            at: 6,
            reorder: false,
            keep_seed: 0,
        });
        let fs = SimFs::with_plan(&plan);
        fs.create_dir_all(Path::new("d")).unwrap(); // op 1
        write_file(&fs, "d/a", b"one", true).unwrap(); // ops 2..4
        fs.sync_dir(Path::new("d")).unwrap(); // op 5
        let e = write_file(&fs, "d/b", b"two", true).unwrap_err(); // op 6: cut
        assert!(is_power_cut(&e));
        assert!(fs.crashed());
        assert!(is_power_cut(&fs.read(Path::new("d/a")).unwrap_err()));
        fs.restart();
        assert_eq!(fs.read(Path::new("d/a")).unwrap(), b"one");
        assert!(!fs.exists(Path::new("d/b")));
        write_file(&fs, "d/b", b"two", true).unwrap();
    }

    #[test]
    fn reorder_power_cut_keeps_a_deterministic_per_file_prefix() {
        let run = |seed: u64| -> Vec<(PathBuf, Vec<u8>)> {
            let fs = fresh(DiskFaultPlan::none());
            for name in ["d/a", "d/b"] {
                let mut f = fs.create(Path::new(name)).unwrap();
                f.write_all(b"S").unwrap();
                f.sync().unwrap();
                f.write_all(b"111").unwrap();
                f.write_all(b"222").unwrap();
                f.write_all(b"333").unwrap();
            }
            fs.sync_dir(Path::new("d")).unwrap();
            fs.power_cut_now(true, seed);
            fs.restart();
            fs.files()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same surviving image");
        for (path, bytes) in &a {
            assert!(
                bytes.starts_with(b"S"),
                "{}: synced prefix survives",
                path.display()
            );
            assert!(bytes.len() <= 10);
        }
        // Some seed in a small scan keeps differing amounts per file —
        // the cross-file reorder the model exists to exercise.
        let differs = (0..64u64).any(|s| {
            let img = run(s);
            img[0].1.len() != img[1].1.len()
        });
        assert!(differs, "reorder must be able to treat files unequally");
    }

    #[test]
    fn remove_without_dir_sync_resurrects_at_power_cut() {
        let fs = fresh(DiskFaultPlan::none());
        write_file(&fs, "d/a", b"v", true).unwrap();
        fs.sync_dir(Path::new("d")).unwrap();
        fs.remove_file(Path::new("d/a")).unwrap();
        assert!(!fs.exists(Path::new("d/a")));
        fs.power_cut_now(false, 0);
        fs.restart();
        assert_eq!(
            fs.read(Path::new("d/a")).unwrap(),
            b"v",
            "an un-dir-synced remove is not durable"
        );
    }
}
