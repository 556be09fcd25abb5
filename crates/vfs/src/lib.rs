//! Injectable filesystem layer for every durability component.
//!
//! PRs 1–7 made `kill -9` invisible, but each guarantee silently
//! assumed that writes which were *issued* also *reached the disk* —
//! the journals, the result cache, the queue shards, the checkpoint
//! store and the gateway's `meta.json` each hand-rolled its own
//! tmp+fsync+rename dance, and the five copies disagreed about which
//! fsyncs matter. This crate replaces all of them with one audited
//! path:
//!
//! * [`Fs`] — the narrow trait every durable write goes through:
//!   create/append/read/rename/dir-sync/remove. Production code uses
//!   [`RealFs`] (a passthrough to `std::fs`); chaos campaigns use
//!   [`SimFs`], a deterministic in-memory filesystem that models the
//!   page cache explicitly (unsynced bytes are *not* durable) and
//!   injects ENOSPC, EIO, short writes, rename failures and power
//!   loss from a sampled [`DiskFaultPlan`].
//! * [`atomic_publish`] — the single atomic-write helper: write tmp →
//!   fsync file → rename → fsync dir. Its fsyncgate policy is
//!   load-bearing: **a failed fsync poisons the file forever**. The
//!   kernel reports a writeback error once, then marks the dirty pages
//!   clean — retrying fsync on the same file returns success while the
//!   data is gone. The only sound reaction is to abandon the file and
//!   rewrite from scratch, which is exactly what `atomic_publish` does
//!   (the tmp file is removed and the error propagates).
//! * [`explore_crashes`] — a crash-consistency explorer that runs a
//!   durable operation once to count its filesystem ops, then replays
//!   it with a power cut injected at *every* op index and checks a
//!   recovery oracle against each post-crash image.
//!
//! The durability model [`SimFs`] enforces is deliberately adversarial
//! (strict POSIX, no journaled-filesystem mercy): bytes survive a
//! power cut only up to the file's last fsync, and a file's directory
//! entry (creation or rename) survives only if the *directory* was
//! fsynced afterwards.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod explore;
mod plan;
mod real;
mod sim;

pub use explore::{explore_crashes, CrashReport};
pub use plan::{DiskFault, DiskFaultPlan};
pub use real::RealFs;
pub use sim::{is_power_cut, power_cut_error, DiskCounters, SimFs};

/// An open file handle behind the [`Fs`] abstraction. Writes land in
/// the (simulated or real) page cache; [`VfsFile::sync`] is the only
/// call that makes them durable.
pub trait VfsFile: Write + Send {
    /// fsync: flush the file's bytes to stable storage. An `Err` means
    /// the kernel may already have dropped the dirty pages — per the
    /// fsyncgate policy the caller must treat the file as poisoned and
    /// rewrite from scratch, never retry-and-trust.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations every durability component is allowed to
/// use. Narrow on purpose: anything not expressible here (mmap,
/// in-place overwrite of synced bytes, hardlinks) is also not
/// crash-safe under the model the chaos campaigns check.
pub trait Fs: Send + Sync {
    /// Creates (or truncates) a file for writing. The new directory
    /// entry is durable only after [`Fs::sync_dir`] on its parent.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens (creating if needed) a file for appending.
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically replaces `to` with `from`. Durable only after
    /// [`Fs::sync_dir`] on the parent.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// fsyncs a directory, making its entries (creates, renames,
    /// removes) durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Entries (files and directories) directly under `dir`, sorted by
    /// path for deterministic iteration.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Reads a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read(path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The shared handle type components store: `RealFs` by default, a
/// `SimFs` under chaos.
pub type SharedFs = Arc<dyn Fs>;

/// The default production filesystem.
pub fn real_fs() -> SharedFs {
    Arc::new(RealFs)
}

/// ENOSPC as an `io::Error`, carrying the OS error code so
/// [`is_enospc`] recognizes simulated and real instances alike.
pub fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

/// Whether an error is out-of-space — from [`SimFs`], from a real
/// disk, or wrapped by an intermediate layer that preserved the OS
/// code. Drives the graceful-degradation paths: the gateway sheds
/// with 507 + Retry-After, the job service quiesces instead of
/// corrupting.
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

/// EIO as an `io::Error` (simulated media failure).
pub fn eio_error() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

/// Whether an error is an I/O media failure.
pub fn is_eio(e: &io::Error) -> bool {
    e.raw_os_error() == Some(5)
}

/// 64-bit FNV-1a: the one checksum of the service stack — journal and
/// cache lines, cache and campaign addresses, queue shard choice,
/// artifact fingerprints. It catches torn and bit-damaged bytes; it
/// is not a defence against crafted collisions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Publishes `bytes` at `path` atomically and durably: write
/// `path.tmp` → fsync the file → rename over `path` → fsync the
/// directory. A crash at any byte leaves either the old content or
/// the new, never a torn file under the final name — and once this
/// returns `Ok`, the content survives power loss.
///
/// Fsyncgate discipline: if the file fsync fails, the tmp file is
/// *abandoned* (removed best-effort) and the error propagates. It is
/// never retried — after a writeback error the kernel has already
/// marked the lost pages clean, so a second fsync would report
/// success for data that is gone. Callers retry by calling
/// `atomic_publish` again, which rewrites from scratch.
pub fn atomic_publish(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_publish_phased(fs, path, bytes).map_err(|e| e.error)
}

/// Which step of an [`atomic_publish`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishPhase {
    /// Creating, writing, or fsyncing the tmp file: nothing reached
    /// the final name; the old content (if any) is untouched.
    Write,
    /// The rename: the fsynced tmp was abandoned; old content intact.
    Rename,
    /// The directory fsync after the rename: the new content is under
    /// the final name and its *bytes* are fsynced, but the rename
    /// itself may not survive power loss — the publish must not be
    /// reported durable.
    DirSync,
}

/// An [`atomic_publish`] failure tagged with the phase it died in. The
/// underlying `io::Error` is preserved verbatim (so [`is_enospc`] /
/// [`is_eio`] still see the OS code through this wrapper).
#[derive(Debug)]
pub struct PublishError {
    /// Where the publish failed.
    pub phase: PublishPhase,
    /// The untouched underlying error.
    pub error: io::Error,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match self.phase {
            PublishPhase::Write => "write/fsync of tmp file",
            PublishPhase::Rename => "rename into place",
            PublishPhase::DirSync => "directory fsync after rename",
        };
        write!(f, "atomic publish failed at {phase}: {}", self.error)
    }
}

impl std::error::Error for PublishError {}

/// [`atomic_publish`] with the failing phase reported, for callers
/// whose error taxonomy distinguishes "never reached disk" from
/// "reached disk but not provably durable" (e.g. the checkpoint
/// store's typed `SaveError`).
pub fn atomic_publish_phased(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> Result<(), PublishError> {
    let dir = path.parent().unwrap_or_else(|| Path::new(""));
    let tmp = tmp_path(path);
    let write = |fs: &dyn Fs| -> io::Result<()> {
        let mut f = fs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync()
    };
    if let Err(e) = write(fs) {
        // Poisoned or short: abandon the tmp file, never trust it.
        let _ = fs.remove_file(&tmp);
        return Err(PublishError {
            phase: PublishPhase::Write,
            error: e,
        });
    }
    if let Err(e) = fs.rename(&tmp, path) {
        let _ = fs.remove_file(&tmp);
        return Err(PublishError {
            phase: PublishPhase::Rename,
            error: e,
        });
    }
    fs.sync_dir(dir).map_err(|e| PublishError {
        phase: PublishPhase::DirSync,
        error: e,
    })
}

/// The temp-file name `atomic_publish` writes next to `path`: the
/// final name with `.tmp` appended, so every component's tmp files
/// are recognizable (and sweepable) by one rule.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A [`RealFs`] wrapper that fails every space-consuming operation
/// with ENOSPC while a trigger file exists — the live-smoke analogue
/// of [`SimFs`]'s persistent ENOSPC fault, controllable from a shell
/// (`touch` injects the fault, `rm` lifts it) so CI can drive a real
/// `serve` process into graceful degradation over the wire.
pub struct EnospcTrigger {
    inner: RealFs,
    trigger: PathBuf,
}

impl EnospcTrigger {
    /// Wraps the real filesystem; ENOSPC while `trigger` exists.
    pub fn new(trigger: impl Into<PathBuf>) -> Self {
        EnospcTrigger {
            inner: RealFs,
            trigger: trigger.into(),
        }
    }

    fn full(&self) -> bool {
        self.trigger.exists()
    }
}

impl Fs for EnospcTrigger {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.full() {
            return Err(enospc_error());
        }
        self.inner.create(path)
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.full() {
            return Err(enospc_error());
        }
        self.inner.append(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if self.full() {
            return Err(enospc_error());
        }
        self.inner.create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a_vectors_hold() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn tmp_names_extend_the_final_name() {
        assert_eq!(
            tmp_path(Path::new("a/b/meta.json")),
            PathBuf::from("a/b/meta.json.tmp")
        );
        assert_eq!(
            tmp_path(Path::new("cache/0123.json")),
            PathBuf::from("cache/0123.json.tmp")
        );
    }

    #[test]
    fn enospc_and_eio_are_recognizable_after_construction() {
        assert!(is_enospc(&enospc_error()));
        assert!(!is_enospc(&eio_error()));
        assert!(is_eio(&eio_error()));
        assert!(!is_eio(&enospc_error()));
        assert!(!is_enospc(&io::Error::other("x")));
    }

    #[test]
    fn atomic_publish_on_the_real_fs_roundtrips() {
        let dir = std::env::temp_dir().join(format!("cpc-vfs-pub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = RealFs;
        let path = dir.join("meta.json");
        atomic_publish(&fs, &path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":1}");
        assert!(
            !tmp_path(&path).exists(),
            "the tmp file must not survive a successful publish"
        );
        // Republish overwrites atomically.
        atomic_publish(&fs, &path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_trigger_gates_on_the_trigger_file() {
        let dir = std::env::temp_dir().join(format!("cpc-vfs-trig-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trigger = dir.join("full");
        let fs = EnospcTrigger::new(&trigger);
        let path = dir.join("x.json");
        atomic_publish(&fs, &path, b"ok").unwrap();
        std::fs::write(&trigger, b"").unwrap();
        let err = atomic_publish(&fs, &path, b"blocked").unwrap_err();
        assert!(is_enospc(&err));
        assert_eq!(std::fs::read(&path).unwrap(), b"ok", "old content intact");
        std::fs::remove_file(&trigger).unwrap();
        atomic_publish(&fs, &path, b"after").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"after");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
