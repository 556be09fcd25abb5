//! A counting filesystem: delegates every call to the real one and
//! counts what the layers above ask of it, so the `vfs.*_per_cell`
//! rows are exact and repeat run to run.

use cpc_vfs::{real_fs, Fs, SharedFs, VfsFile};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct Counters {
    creates: AtomicU64,
    appends: AtomicU64,
    reads: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
    mkdirs: AtomicU64,
    listings: AtomicU64,
    file_syncs: AtomicU64,
    dir_syncs: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub creates: u64,
    pub appends: u64,
    pub reads: u64,
    pub renames: u64,
    pub removes: u64,
    pub mkdirs: u64,
    pub listings: u64,
    pub file_syncs: u64,
    pub dir_syncs: u64,
    pub bytes_written: u64,
}

impl FsCounts {
    /// Every call that reached the filesystem (`exists` probes
    /// excluded: they carry no durability cost).
    pub fn ops(&self) -> u64 {
        self.creates
            + self.appends
            + self.reads
            + self.renames
            + self.removes
            + self.mkdirs
            + self.listings
            + self.file_syncs
            + self.dir_syncs
    }
}

pub struct CountingFs {
    inner: SharedFs,
    counters: Arc<Counters>,
}

impl CountingFs {
    pub fn new() -> Arc<Self> {
        Arc::new(CountingFs {
            inner: real_fs(),
            counters: Arc::new(Counters::default()),
        })
    }

    pub fn counts(&self) -> FsCounts {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FsCounts {
            creates: get(&c.creates),
            appends: get(&c.appends),
            reads: get(&c.reads),
            renames: get(&c.renames),
            removes: get(&c.removes),
            mkdirs: get(&c.mkdirs),
            listings: get(&c.listings),
            file_syncs: get(&c.file_syncs),
            dir_syncs: get(&c.dir_syncs),
            bytes_written: get(&c.bytes_written),
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        bump(&self.counters.file_syncs);
        self.inner.sync()
    }
}

impl Fs for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        bump(&self.counters.creates);
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        bump(&self.counters.appends);
        Ok(Box::new(CountingFile {
            inner: self.inner.append(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        bump(&self.counters.reads);
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        bump(&self.counters.renames);
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        bump(&self.counters.dir_syncs);
        self.inner.sync_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        bump(&self.counters.removes);
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        bump(&self.counters.mkdirs);
        self.inner.create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        bump(&self.counters.listings);
        self.inner.read_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::TempRoot;

    #[test]
    fn an_atomic_publish_is_one_create_one_fsync_one_rename_one_dir_sync() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp");
        let root = TempRoot::new(&base, "countfs").unwrap();
        let fs = CountingFs::new();
        cpc_vfs::atomic_publish(fs.as_ref(), &root.path().join("meta.json"), &[7u8; 512]).unwrap();
        let c = fs.counts();
        assert_eq!(
            c,
            FsCounts {
                creates: 1,
                renames: 1,
                file_syncs: 1,
                dir_syncs: 1,
                bytes_written: 512,
                ..FsCounts::default()
            }
        );
        assert_eq!(c.ops(), 4);
        assert_eq!(
            std::fs::read(root.path().join("meta.json")).unwrap(),
            vec![7u8; 512]
        );
    }
}
