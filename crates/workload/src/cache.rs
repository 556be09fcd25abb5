//! Content-addressed result cache: identical campaign cells are served
//! from disk instead of re-simulated.
//!
//! Every run on the virtual cluster is deterministic by construction —
//! the same (task, protocol, code version) always produces the same
//! result, bit for bit — so a cell's result can be addressed purely by
//! the *content of its request*: [`CacheKey::of`] hashes the canonical
//! JSON of the task together with a protocol string and the crate's
//! [`code_version`]. Cache entries use the same checksum discipline as
//! the [`Journal`](crate::journal::Journal) (`{crc:016x} {json}`), are
//! published through [`cpc_vfs::atomic_publish`] (tmp, fsync, rename,
//! directory fsync), and a damaged entry — torn, bit-flipped,
//! truncated — fails its checksum, is quarantined (renamed aside,
//! never clobbering an earlier quarantine of the same key) and counted,
//! and the cell simply re-simulates: corruption costs one cache miss,
//! never a wrong answer.
//!
//! All I/O goes through an injected [`cpc_vfs::Fs`], so the disk-fault
//! campaigns can subject the cache to ENOSPC, EIO, and power loss.

use cpc_vfs::{atomic_publish, fnv1a64, real_fs, SharedFs};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Bumped whenever the meaning of cached bytes changes (entry format,
/// result schema, physics). Folded into every [`CacheKey`], so a
/// version bump invalidates the whole cache without touching it.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The code-version component of every cache key: a result is only
/// addressable by a binary built from the same crate version and cache
/// format. (The virtual cluster is deterministic *within* one build;
/// across versions the physics may legitimately differ.)
pub fn code_version() -> String {
    format!(
        "cpc-{}+fmt{}",
        env!("CARGO_PKG_VERSION"),
        CACHE_FORMAT_VERSION
    )
}

/// A content address: `hash(task, protocol, code-version)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Addresses a task under a protocol. `task` is anything
    /// serializable that fully determines the work (an experiment
    /// point, a `(seed, FaultPlan)` pair, a scenario key); `protocol`
    /// carries whatever the task type leaves implicit (step count,
    /// energy model, workload). The crate's [`code_version`] is always
    /// folded in.
    pub fn of<T: Serialize>(task: &T, protocol: &str) -> io::Result<CacheKey> {
        let json = serde_json::to_string(task)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let material = format!("{}\n{protocol}\n{json}", code_version());
        Ok(CacheKey(fnv1a64(material.as_bytes())))
    }

    /// The 16-hex-digit rendering used as the entry's file name.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Counters the cache accumulates over its lifetime (per process; the
/// on-disk store itself is shared across incarnations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served (checksum verified).
    pub hits: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Entries found damaged (bad checksum / unparsable) and
    /// quarantined; each also counts as a miss.
    pub corrupt: usize,
    /// Entries written.
    pub stores: usize,
}

/// A directory of checksummed, content-addressed result files.
pub struct ResultCache {
    dir: PathBuf,
    fs: SharedFs,
    stats: CacheStats,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory on the real
    /// filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_on(real_fs(), dir)
    }

    /// Opens (creating if needed) the cache directory on an injected
    /// filesystem.
    pub fn open_on(fs: SharedFs, dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            fs,
            stats: CacheStats::default(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Looks up `key`, verifying the entry's checksum before trusting
    /// it. A damaged entry is quarantined (renamed to a `.bad-N` name
    /// that preserves the corrupt bytes for forensics) and reported as
    /// a miss: the caller re-simulates and overwrites it with a good
    /// one.
    pub fn get<T: Deserialize>(&mut self, key: &CacheKey) -> Option<T> {
        let path = self.entry_path(key);
        let bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.stats.misses += 1;
                return None;
            }
        };
        // Bytes first: a bit flip can leave the entry invalid UTF-8,
        // which is corruption to quarantine, not an absent entry.
        let parsed = std::str::from_utf8(&bytes).ok().and_then(|text| {
            let (crc, json) = text.trim_end().split_once(' ')?;
            let stored = u64::from_str_radix(crc, 16).ok()?;
            if stored != fnv1a64(json.as_bytes()) {
                return None;
            }
            serde_json::from_str::<T>(json).ok()
        });
        match parsed {
            Some(value) => {
                self.stats.hits += 1;
                Some(value)
            }
            None => {
                // Bit flip, torn write, or foreign bytes: quarantine.
                self.quarantine(key, &path);
                self.stats.corrupt += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Moves a damaged entry aside under a name no later corruption of
    /// the same key can clobber: `{hex}.bad-N` for the first free `N`.
    /// Two corrupt incarnations of one key therefore leave two distinct
    /// quarantine records. If even the rename fails (e.g. the disk is
    /// rejecting metadata ops) the entry is deleted so the damaged
    /// bytes can never be served.
    fn quarantine(&self, key: &CacheKey, path: &Path) {
        for n in 0u32.. {
            let q = self.dir.join(format!("{}.bad-{n}", key.hex()));
            if !self.fs.exists(&q) {
                if self.fs.rename(path, &q).is_err() {
                    let _ = self.fs.remove_file(path);
                }
                return;
            }
        }
    }

    /// Stores `value` under `key` atomically via
    /// [`cpc_vfs::atomic_publish`]: written to a temp file, fsynced,
    /// renamed into place, and the cache directory fsynced — a kill or
    /// power cut mid-store leaves either the old entry or the new one,
    /// never a torn file under the final name, and a completed store
    /// survives power loss.
    pub fn put<T: Serialize>(&mut self, key: &CacheKey, value: &T) -> io::Result<()> {
        let json = serde_json::to_string(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let line = format!("{:016x} {json}\n", fnv1a64(json.as_bytes()));
        atomic_publish(self.fs.as_ref(), &self.entry_path(key), line.as_bytes())?;
        self.stats.stores += 1;
        Ok(())
    }

    /// Whether an entry exists on disk (without verifying it).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.fs.exists(&self.entry_path(key))
    }

    /// Number of entries on disk.
    pub fn len(&self) -> usize {
        self.entry_paths().len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Paths of every entry on disk, sorted by file name (stable order
    /// for fault injection and audits).
    pub fn entry_paths(&self) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = self
            .fs
            .read_dir(&self.dir)
            .map(|paths| {
                paths
                    .into_iter()
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Paths of quarantined (damaged, moved-aside) entries, sorted.
    pub fn quarantine_paths(&self) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = self
            .fs
            .read_dir(&self.dir)
            .map(|paths| {
                paths
                    .into_iter()
                    .filter(|p| {
                        p.extension()
                            .and_then(|x| x.to_str())
                            .is_some_and(|x| x.starts_with("bad-"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::ExperimentPoint;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn keys_are_content_addressed_and_version_scoped() {
        let a = CacheKey::of(&ExperimentPoint::focal(2), "steps=2").unwrap();
        let b = CacheKey::of(&ExperimentPoint::focal(2), "steps=2").unwrap();
        let c = CacheKey::of(&ExperimentPoint::focal(4), "steps=2").unwrap();
        let d = CacheKey::of(&ExperimentPoint::focal(2), "steps=10").unwrap();
        assert_eq!(a, b, "same content, same address");
        assert_ne!(a, c, "task drives the address");
        assert_ne!(a, d, "protocol drives the address");
        assert_eq!(a.hex().len(), 16);
        assert!(code_version().contains("fmt"));
    }

    #[test]
    fn roundtrip_hit_and_miss_accounting() {
        let mut cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let key = CacheKey::of(&ExperimentPoint::focal(2), "p").unwrap();
        assert!(cache.get::<Vec<f64>>(&key).is_none());
        cache.put(&key, &vec![1.5f64, -2.25]).unwrap();
        assert_eq!(cache.get::<Vec<f64>>(&key), Some(vec![1.5, -2.25]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.stores), (1, 1, 0, 1));
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bit_flip_is_caught_quarantined_and_healed_by_restore() {
        let mut cache = ResultCache::open(tmp_dir("flip")).unwrap();
        let key = CacheKey::of(&ExperimentPoint::focal(8), "p").unwrap();
        cache.put(&key, &vec![3.5f64]).unwrap();
        let path = cache.entry_paths().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        assert!(
            cache.get::<Vec<f64>>(&key).is_none(),
            "damaged entry must not verify"
        );
        assert_eq!(cache.stats().corrupt, 1);
        assert!(!cache.contains(&key), "quarantined from disk");
        // Re-simulating and re-storing heals the entry.
        cache.put(&key, &vec![3.5f64]).unwrap();
        assert_eq!(cache.get::<Vec<f64>>(&key), Some(vec![3.5]));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn repeated_corruption_of_one_key_keeps_every_quarantine_record() {
        // Two corrupt incarnations of the same key must leave two
        // distinct quarantine files — the second must not clobber the
        // first (the forensics record of what was on disk).
        let mut cache = ResultCache::open(tmp_dir("quarantine")).unwrap();
        let key = CacheKey::of(&1u64, "p").unwrap();
        for round in 0..2 {
            cache.put(&key, &vec![9.0f64]).unwrap();
            let path = cache.entry_paths().pop().unwrap();
            std::fs::write(&path, format!("not a cache entry, round {round}")).unwrap();
            assert!(cache.get::<Vec<f64>>(&key).is_none());
        }
        assert_eq!(cache.stats().corrupt, 2);
        let quarantined = cache.quarantine_paths();
        assert_eq!(quarantined.len(), 2, "both corrupt bodies preserved");
        let bodies: Vec<String> = quarantined
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect();
        assert_ne!(bodies[0], bodies[1], "distinct records, not a clobber");
        assert_eq!(cache.len(), 0, "quarantine files are not entries");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_store_survives_every_crash_point() {
        use cpc_vfs::{explore_crashes, SimFs};
        use std::sync::Arc;
        // Cut power at every filesystem op of open + put; recovery must
        // find either no entry or a verifiable one — and after the
        // acked-then-lost probe, the entry must still be served.
        let key = CacheKey::of(&42u64, "p").unwrap();
        let report = explore_crashes(
            |fs: &SimFs| {
                let fs: Arc<SimFs> = Arc::new(fs.clone());
                let mut cache = ResultCache::open_on(fs, "cache")?;
                cache.put(&key, &vec![1.0f64, 2.0])
            },
            |fs: &SimFs| {
                let fs: Arc<SimFs> = Arc::new(fs.clone());
                let mut cache = ResultCache::open_on(fs, "cache").map_err(|e| e.to_string())?;
                match cache.get::<Vec<f64>>(&key) {
                    Some(v) if v == vec![1.0, 2.0] => Ok(()),
                    Some(v) => Err(format!("cache served wrong bytes: {v:?}")),
                    None if cache.stats().corrupt > 0 => {
                        Err("a torn entry reached the final name".into())
                    }
                    None => Ok(()), // honest miss: the put never landed
                }
            },
        )
        .unwrap();
        assert!(
            report.ops >= 5,
            "mkdir, create, write, fsync, rename, dir sync"
        );

        // The oracle above treats a miss as honest, so it cannot catch
        // acked-then-lost on the explorer's final probe; pin it here:
        // a put that returned Ok must survive an immediate power cut.
        let fs = Arc::new(SimFs::new());
        let mut cache = ResultCache::open_on(fs.clone(), "cache").unwrap();
        cache.put(&key, &vec![1.0f64, 2.0]).unwrap();
        fs.power_cut_now(false, 0);
        fs.restart();
        let mut cache = ResultCache::open_on(fs, "cache").unwrap();
        assert_eq!(
            cache.get::<Vec<f64>>(&key),
            Some(vec![1.0, 2.0]),
            "an acked store must survive power loss"
        );
    }

    #[test]
    fn torn_entry_is_a_miss() {
        let mut cache = ResultCache::open(tmp_dir("torn")).unwrap();
        let key = CacheKey::of(&7u64, "p").unwrap();
        cache.put(&key, &vec![1.0f64, 2.0]).unwrap();
        let path = cache.entry_paths().pop().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.get::<Vec<f64>>(&key).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
