//! A plain in-memory filesystem for the `svc_*` workloads.
//!
//! On the sandbox's virtual disk a warm campaign is 95 % flush latency,
//! and that latency — like the cost of ext4 create/unlink churn once
//! the flushes are taken away — drifts by 25–50 % from one minute to
//! the next. Measured there, `svc_warm` reports the disk, not the
//! service. So the two workloads run the real `JobService`, journal,
//! cache and queue over this map of byte vectors, and what they report
//! is what those layers cost in themselves: serialisation, checksums,
//! recovery scans and bookkeeping. What the service asks of a real disk
//! is reported beside it as exact per-cell counts (`vfs.*_per_cell`)
//! and as real-disk latencies (`workload.journal_append_us`,
//! `workload.cache_put_us`, `vfs.atomic_publish_us`), and `serve_paced`
//! pays for every flush end to end.
//!
//! Deliberately not `cpc_vfs::SimFs`: that one models a page cache and
//! power cuts, and its speed should not move a scoreboard row.

use cpc_vfs::{Fs, VfsFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

type Bytes = Arc<Mutex<Vec<u8>>>;

#[derive(Default)]
struct Tree {
    files: BTreeMap<PathBuf, Bytes>,
    dirs: BTreeSet<PathBuf>,
}

#[derive(Default)]
pub struct MemFs {
    tree: Mutex<Tree>,
}

impl MemFs {
    pub fn new() -> Arc<Self> {
        Arc::new(MemFs::default())
    }

    fn tree(&self) -> std::sync::MutexGuard<'_, Tree> {
        self.tree.lock().expect("no MemFs call panics mid-update")
    }

    /// Forgets every file and directory at or under `root`: how the
    /// harness drops a finished campaign, so a long run keeps a flat
    /// memory profile.
    pub fn remove_tree(&self, root: &Path) {
        let mut tree = self.tree();
        tree.files.retain(|p, _| !p.starts_with(root));
        tree.dirs.retain(|p| !p.starts_with(root));
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} is not in the in-memory filesystem", path.display()),
    )
}

struct MemFile(Bytes);

impl Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("no MemFs call panics mid-update")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for MemFile {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Fs for MemFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let bytes = Bytes::default();
        self.tree().files.insert(path.to_path_buf(), bytes.clone());
        Ok(Box::new(MemFile(bytes)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let bytes = self
            .tree()
            .files
            .entry(path.to_path_buf())
            .or_default()
            .clone();
        Ok(Box::new(MemFile(bytes)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self
            .tree()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let copy = bytes
            .lock()
            .expect("no MemFs call panics mid-update")
            .clone();
        Ok(copy)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        let bytes = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tree()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for ancestor in dir.ancestors() {
            if !ancestor.as_os_str().is_empty() {
                tree.dirs.insert(ancestor.to_path_buf());
            }
        }
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.tree();
        if !tree.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let mut entries: Vec<PathBuf> = tree
            .files
            .keys()
            .chain(tree.dirs.iter())
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect();
        entries.sort();
        Ok(entries)
    }

    fn exists(&self, path: &Path) -> bool {
        let tree = self.tree();
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_the_narrow_filesystem_the_durability_layers_use() {
        let fs = MemFs::new();
        let dir = Path::new("/svc/campaign-1");
        fs.create_dir_all(&dir.join("cache")).unwrap();
        assert!(fs.exists(dir) && fs.exists(Path::new("/svc")));

        // Atomic publish: tmp + rename, the tmp name gone afterwards.
        cpc_vfs::atomic_publish(fs.as_ref(), &dir.join("cache/a.json"), b"one").unwrap();
        assert_eq!(fs.read(&dir.join("cache/a.json")).unwrap(), b"one");
        assert!(!fs.exists(&dir.join("cache/a.json.tmp")));

        // Appends through two handles land in one file, in order.
        let journal = dir.join("journal.jsonl");
        fs.append(&journal).unwrap().write_all(b"l1\n").unwrap();
        let mut again = fs.append(&journal).unwrap();
        again.write_all(b"l2\n").unwrap();
        again.sync().unwrap();
        assert_eq!(fs.read_to_string(&journal).unwrap(), "l1\nl2\n");
        // Create truncates.
        fs.create(&journal).unwrap().write_all(b"x").unwrap();
        assert_eq!(fs.read(&journal).unwrap(), b"x");

        assert_eq!(
            fs.read_dir(dir).unwrap(),
            vec![dir.join("cache"), dir.join("journal.jsonl")]
        );
        assert_eq!(
            fs.read(Path::new("/svc/none")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert!(fs.read_dir(Path::new("/svc/none")).is_err());
        fs.remove_file(&journal).unwrap();
        assert!(fs.remove_file(&journal).is_err());

        fs.remove_tree(dir);
        assert!(!fs.exists(dir) && !fs.exists(&dir.join("cache/a.json")));
        assert!(fs.exists(Path::new("/svc")));
    }
}
