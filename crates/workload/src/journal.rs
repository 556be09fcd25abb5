//! Append-only measurement journal: the on-disk manifest that makes
//! long campaigns resumable.
//!
//! Each completed cell is appended as one JSONL line prefixed with an
//! FNV-1a checksum of the JSON payload (`{crc:016x} {json}`). A
//! campaign killed mid-sweep leaves at worst one torn trailing line;
//! on resume the intact prefix is recovered, the torn tail is
//! discarded (and counted), and finished cells are skipped instead of
//! re-measured. Because every measurement on the virtual cluster is
//! deterministic, a killed-then-resumed campaign produces a manifest
//! byte-identical to an uninterrupted run's.

use cpc_vfs::{fnv1a64, Fs, SharedFs, VfsFile};
use serde::{Deserialize, Serialize};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Result of recovering a journal from disk.
#[derive(Debug)]
pub struct Recovery<T> {
    /// Entries from the intact prefix, in append order.
    pub entries: Vec<T>,
    /// Lines discarded because they were torn, checksum-damaged or
    /// unparsable (everything from the first bad line on is dropped —
    /// append order is meaningful, so nothing after a tear is trusted).
    pub dropped: usize,
    /// Entries discarded because an earlier entry in the intact prefix
    /// carried the same key (first-wins; only [`Journal::resume_keyed`]
    /// detects these — a crash between the journal append and the
    /// writer's own completion bookkeeping can legitimately record a
    /// cell twice).
    pub duplicates: usize,
}

impl<T> Recovery<T> {
    fn empty() -> Self {
        Recovery {
            entries: Vec::new(),
            dropped: 0,
            duplicates: 0,
        }
    }
}

/// An append-only, checksummed JSONL journal of completed cells.
pub struct Journal<T> {
    path: PathBuf,
    fs: SharedFs,
    file: Box<dyn VfsFile>,
    /// A previous append failed mid-line (short write, EIO, failed
    /// fsync): the file's tail is untrusted and — per the fsyncgate
    /// policy — must never be appended through. Every further append
    /// fails until the caller reopens via [`Journal::resume`], whose
    /// recovery truncates the damage.
    poisoned: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T> std::fmt::Debug for Journal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl<T: Serialize + Deserialize> Journal<T> {
    /// Starts a fresh journal at `path`, truncating any previous one.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::create_on(cpc_vfs::real_fs(), path)
    }

    /// [`Journal::create`] on an explicit filesystem.
    pub(crate) fn create_on(fs: SharedFs, path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs.create_dir_all(parent)?;
        }
        let file = fs.create(&path)?;
        // Make the journal's directory entry durable before acking
        // anything appended to it: a file that vanishes at power loss
        // takes every "durable" record with it.
        if let Some(parent) = path.parent() {
            fs.sync_dir(parent)?;
        }
        Ok(Journal {
            path,
            fs,
            file,
            poisoned: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Reads the intact prefix of the journal at `path` (missing file =
    /// empty journal), rewrites the file to exactly that prefix so a
    /// torn tail cannot linger mid-file, and reopens it for appending.
    pub fn resume(path: impl Into<PathBuf>) -> io::Result<(Self, Recovery<T>)> {
        Self::resume_on(cpc_vfs::real_fs(), path)
    }

    /// [`Journal::resume`] on an explicit filesystem.
    pub(crate) fn resume_on(
        fs: SharedFs,
        path: impl Into<PathBuf>,
    ) -> io::Result<(Self, Recovery<T>)> {
        let path = path.into();
        let recovery = Self::load_on(fs.as_ref(), &path)?;
        let journal = Self::publish_and_open(fs, path, &recovery.entries)?;
        Ok((journal, recovery))
    }

    /// [`Journal::resume`] with duplicate-cell elimination: entries in
    /// the intact prefix whose `key` repeats an earlier entry's are
    /// dropped (first-wins — the first append is the one whose commit
    /// completed) and counted in [`Recovery::duplicates`], and the file
    /// is rewritten without them. A writer killed between appending a
    /// cell and recording it as done re-appends the same cell on its
    /// next incarnation; without this, the duplicate would survive
    /// every subsequent resume.
    pub fn resume_keyed<K, F>(path: impl Into<PathBuf>, key: F) -> io::Result<(Self, Recovery<T>)>
    where
        K: std::hash::Hash + Eq,
        F: Fn(&T) -> K,
    {
        Self::resume_keyed_on(cpc_vfs::real_fs(), path, key)
    }

    /// [`Journal::resume_keyed`] on an explicit filesystem.
    pub(crate) fn resume_keyed_on<K, F>(
        fs: SharedFs,
        path: impl Into<PathBuf>,
        key: F,
    ) -> io::Result<(Self, Recovery<T>)>
    where
        K: std::hash::Hash + Eq,
        F: Fn(&T) -> K,
    {
        let path = path.into();
        let mut recovery = Self::load_on(fs.as_ref(), &path)?;
        let mut seen = std::collections::HashSet::new();
        let before = recovery.entries.len();
        recovery.entries.retain(|e| seen.insert(key(e)));
        recovery.duplicates = before - recovery.entries.len();
        let journal = Self::publish_and_open(fs, path, &recovery.entries)?;
        Ok((journal, recovery))
    }

    /// Atomically rewrites the journal to exactly `entries` and
    /// reopens it for appending. The old file — whose synced prefix is
    /// the only durable truth — stays in place until the rename
    /// commits, so no fault mid-rewrite can destroy an acknowledged
    /// record (the previous truncate-and-re-append rewrite could: a
    /// crash between the truncate and the last re-append lost the
    /// whole prefix). Publishing a fresh file also sheds any fsyncgate
    /// poison the previous incarnation's failed fsync left on the old
    /// one: appending through a poisoned file would bury a silent hole
    /// mid-journal.
    fn publish_and_open(fs: SharedFs, path: PathBuf, entries: &[T]) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            fs.create_dir_all(parent)?;
        }
        let mut bytes = Vec::new();
        for entry in entries {
            let json = serde_json::to_string(entry)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let line = format!("{:016x} {json}\n", fnv1a64(json.as_bytes()));
            bytes.extend_from_slice(line.as_bytes());
        }
        cpc_vfs::atomic_publish(fs.as_ref(), &path, &bytes)?;
        let file = fs.append(&path)?;
        Ok(Journal {
            path,
            fs,
            file,
            poisoned: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Reads the intact prefix of the journal at `path` without
    /// opening it for writing. A missing file is an empty journal.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Recovery<T>> {
        Self::load_on(&cpc_vfs::RealFs, path)
    }

    /// [`Journal::load`] on an explicit filesystem.
    pub fn load_on(fs: &dyn Fs, path: impl AsRef<Path>) -> io::Result<Recovery<T>> {
        let bytes = match fs.read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovery::empty()),
            Err(e) => return Err(e),
        };
        // Split the raw bytes rather than decoding the whole file:
        // a single bit-damaged line can be invalid UTF-8, and that
        // must read as *that line's* damage (checksum discipline),
        // never as an unreadable journal.
        let mut raw: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if raw.last().is_some_and(|l| l.is_empty()) {
            raw.pop();
        }
        let mut recovery = Recovery::empty();
        for (i, line_bytes) in raw.iter().enumerate() {
            let line_bytes = line_bytes.strip_suffix(b"\r").unwrap_or(line_bytes);
            let parsed = std::str::from_utf8(line_bytes).ok().and_then(|line| {
                let (crc, json) = line.split_once(' ')?;
                let stored = u64::from_str_radix(crc, 16).ok()?;
                if stored != fnv1a64(json.as_bytes()) {
                    return None;
                }
                serde_json::from_str::<T>(json).ok()
            });
            match parsed {
                Some(entry) => recovery.entries.push(entry),
                None => {
                    // First bad line: discard it and the rest.
                    recovery.dropped = raw.len() - i;
                    break;
                }
            }
        }
        Ok(recovery)
    }

    /// Appends one completed cell and flushes it to stable storage, so
    /// a kill immediately afterwards cannot lose it.
    ///
    /// On *any* write or fsync failure the journal poisons itself:
    /// the on-disk tail is in an unknown state (a short line, or a
    /// fsyncgate-dropped one), and appending past it would bury the
    /// damage mid-file where recovery truncation cannot reach it.
    /// Every subsequent append fails until the caller reopens through
    /// [`Journal::resume`], which truncates the torn tail.
    pub fn append(&mut self, entry: &T) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal poisoned by an earlier failed append; reopen to recover",
            ));
        }
        let json = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let result = writeln!(self.file, "{:016x} {json}", fnv1a64(json.as_bytes()))
            .and_then(|_| self.file.sync());
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The filesystem this journal writes through.
    pub fn fs(&self) -> &SharedFs {
        &self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::ExperimentPoint;
    use crate::runner::Measurement;

    fn fake_measurement(procs: usize) -> Measurement {
        Measurement {
            point: ExperimentPoint::focal(procs),
            steps: 2,
            classic_time: 1.5 * procs as f64,
            pme_time: 0.5,
            classic_pct: (90.0, 8.0, 2.0),
            pme_pct: (80.0, 15.0, 5.0),
            energy_pct: (88.0, 9.0, 3.0),
            throughput: Some((10.0, 8.0, 12.0)),
            final_total_energy: -123.25,
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cpc-journal-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_entries_in_order() {
        let path = tmp_path("roundtrip");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        for p in [1usize, 2, 4] {
            j.append(&fake_measurement(p)).unwrap();
        }
        let rec: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec.dropped, 0);
        let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
        assert_eq!(procs, vec![1, 2, 4]);
        assert_eq!(rec.entries[0].final_total_energy, -123.25);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_truncates_it() {
        let path = tmp_path("torn");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        j.append(&fake_measurement(2)).unwrap();
        drop(j);
        // Simulate a kill mid-append: a half-written third line.
        let full = std::fs::read_to_string(&path).unwrap();
        let torn = format!("{full}deadbeefdeadbeef {{\"point\":");
        std::fs::write(&path, &torn).unwrap();

        let (mut j, rec) = Journal::<Measurement>::resume(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.dropped, 1);
        j.append(&fake_measurement(4)).unwrap();
        drop(j);

        let rec: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec.dropped, 0, "resume rewrote the torn tail away");
        let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
        assert_eq!(procs, vec![1, 2, 4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_damaged_line_invalidates_itself_and_the_rest() {
        let path = tmp_path("bitflip");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        for p in [1usize, 2, 4] {
            j.append(&fake_measurement(p)).unwrap();
        }
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second line.
        let second_line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second_line_start + 30] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let rec: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec.entries.len(), 1, "only the line before the damage");
        assert_eq!(rec.dropped, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn valid_json_with_bad_checksum_is_truncated_like_any_torn_tail() {
        // The nasty torn-write case: the final record was damaged in a
        // way that still parses as JSON (here: an older, complete
        // record overwritten in place under a stale checksum). The
        // checksum must be verified BEFORE the parse is trusted — a
        // parseable-but-unverified tail is still a tail.
        let path = tmp_path("validjson-badcrc");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        j.append(&fake_measurement(2)).unwrap();
        drop(j);
        // Rewrite the second line's payload to different-but-valid JSON
        // while keeping the original (now wrong) checksum prefix.
        let full = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        let (crc, _json) = lines[1].split_once(' ').unwrap();
        let fake_json = serde_json::to_string(&fake_measurement(8)).unwrap();
        let doctored = format!("{crc} {fake_json}");
        assert_ne!(
            u64::from_str_radix(crc, 16).unwrap(),
            fnv1a64(fake_json.as_bytes()),
            "the doctored payload must not re-verify"
        );
        lines[1] = &doctored;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let (mut j, rec) = Journal::<Measurement>::resume(&path).unwrap();
        assert_eq!(rec.entries.len(), 1, "only the verified prefix survives");
        assert_eq!(
            rec.dropped, 1,
            "the parseable-but-unverified tail is dropped"
        );
        assert_eq!(rec.entries[0].point.procs, 1);
        j.append(&fake_measurement(4)).unwrap();
        drop(j);
        let rec: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec.dropped, 0, "resume rewrote the bad record away");
        let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
        assert_eq!(procs, vec![1, 4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_resume_drops_duplicates_first_wins_and_rewrites() {
        // A writer killed between "append cell" and "mark cell done"
        // re-appends the same cell on restart: the journal then holds
        // the cell twice. resume_keyed keeps the FIRST copy (the one
        // whose commit completed), counts the rest, and rewrites the
        // file clean so the dup cannot survive another resume.
        let path = tmp_path("dedup");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        let mut second = fake_measurement(2);
        second.final_total_energy = -1.0; // first-wins marker
        j.append(&fake_measurement(1)).unwrap();
        j.append(&second).unwrap();
        j.append(&fake_measurement(4)).unwrap();
        // The re-appended duplicate of p=2 (different payload: the
        // retried measurement happens to carry other responses).
        j.append(&fake_measurement(2)).unwrap();
        drop(j);

        let (j, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        drop(j);
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.dropped, 0);
        let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
        assert_eq!(procs, vec![1, 2, 4], "append order of first copies kept");
        assert_eq!(
            rec.entries[1].final_total_energy, -1.0,
            "first-wins: the committed copy survives, not the retry"
        );
        // The rewrite scrubbed the duplicate from disk.
        let rec2: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec2.entries.len(), 3);
        let (_, rec3) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert_eq!(rec3.duplicates, 0, "second keyed resume finds none");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_resume_still_truncates_torn_tails() {
        let path = tmp_path("dedup-torn");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        drop(j);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{full}deadbeef {{\"point\":")).unwrap();
        let (_, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.dropped, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let rec: Recovery<Measurement> = Journal::load(tmp_path("missing")).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn keyed_resume_of_an_empty_journal_is_clean() {
        // Both flavors of empty: the file does not exist, and the file
        // exists with zero bytes (created, never appended).
        let path = tmp_path("dedup-missing");
        let _ = std::fs::remove_file(&path);
        let (j, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!((rec.dropped, rec.duplicates), (0, 0));
        drop(j); // create() left an empty file behind
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let (_, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!((rec.dropped, rec.duplicates), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_resume_of_an_all_duplicate_journal_keeps_exactly_the_first() {
        let path = tmp_path("dedup-all");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        let mut first = fake_measurement(2);
        first.final_total_energy = -1.0; // first-wins marker
        j.append(&first).unwrap();
        for _ in 0..3 {
            j.append(&fake_measurement(2)).unwrap();
        }
        drop(j);
        let (_, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.duplicates, 3);
        assert_eq!(rec.entries[0].final_total_energy, -1.0);
        // The rewrite scrubbed them: a second resume finds one entry.
        let rec2: Recovery<Measurement> = Journal::load(&path).unwrap();
        assert_eq!(rec2.entries.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_duplicate_inside_the_unverified_tail_counts_as_dropped_not_duplicate() {
        // The record that would have been a duplicate sits AFTER a torn
        // line: it is untrusted tail, so it must be discarded by the
        // checksum pass (dropped), never consulted by the dedup pass
        // (duplicates) — double-counting it would misstate both.
        let path = tmp_path("dedup-tail");
        let mut j: Journal<Measurement> = Journal::create(&path).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        j.append(&fake_measurement(2)).unwrap();
        drop(j);
        let full = std::fs::read_to_string(&path).unwrap();
        // A torn line, then a perfectly valid duplicate of p=2 after it.
        let dup_json = serde_json::to_string(&fake_measurement(2)).unwrap();
        let dup_line = format!("{:016x} {dup_json}", {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in dup_json.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
        std::fs::write(&path, format!("{full}deadbeef {{\"torn\":\n{dup_line}\n")).unwrap();

        let (_, rec) = Journal::<Measurement>::resume_keyed(&path, |m| m.point).unwrap();
        assert_eq!(rec.entries.len(), 2, "the intact prefix only");
        assert_eq!(rec.dropped, 2, "the torn line and everything after it");
        assert_eq!(rec.duplicates, 0, "tail records never reach the dedup pass");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_poisons_the_journal_until_reopen() {
        use cpc_vfs::{DiskFault, DiskFaultPlan, SimFs};
        use std::path::Path;
        // The fsync of the second append fails (fsyncgate). The journal
        // must refuse the third append outright instead of appending
        // past a tail the kernel already dropped. A fault-free probe
        // finds the op index of the second append's fsync (the last op
        // it issues) so the plan stays valid if write batching changes.
        let second_sync_at = {
            let fs = std::sync::Arc::new(SimFs::new());
            let mut j: Journal<Measurement> =
                Journal::create_on(fs.clone(), Path::new("out/j.jsonl")).unwrap();
            j.append(&fake_measurement(1)).unwrap();
            j.append(&fake_measurement(2)).unwrap();
            fs.op_count()
        };
        let plan = DiskFaultPlan::none().with(DiskFault::EioFsync { at: second_sync_at });
        let fs = std::sync::Arc::new(SimFs::with_plan(&plan));
        let path = Path::new("out/j.jsonl");
        let mut j: Journal<Measurement> = Journal::create_on(fs.clone(), path).unwrap();
        j.append(&fake_measurement(1)).unwrap();
        assert!(j.append(&fake_measurement(2)).is_err(), "fsync failed");
        assert!(j.poisoned);
        let e = j.append(&fake_measurement(4)).unwrap_err();
        assert!(e.to_string().contains("poisoned"), "got: {e}");
        drop(j);
        // Reopen: recovery sees the intact first record; the dropped
        // second line vanished with the page cache, so there is not
        // even a tail to truncate.
        let (mut j, rec) = Journal::<Measurement>::resume_on(fs.clone(), path).unwrap();
        assert_eq!(rec.entries.len(), 1);
        j.append(&fake_measurement(4)).unwrap();
        let rec: Recovery<Measurement> = Journal::load_on(fs.as_ref(), path).unwrap();
        let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
        assert_eq!(procs, vec![1, 4]);
    }

    #[test]
    fn every_crash_point_of_create_and_append_recovers_to_an_intact_prefix() {
        use cpc_vfs::{explore_crashes, SimFs};
        use std::sync::Arc;
        // The journal's crash-consistency contract, exhaustively: cut
        // power at every filesystem op of create + 3 appends; recovery
        // must always yield a clean prefix of the appended records, and
        // must never lose a record the append acked before the cut...
        // which explore_crashes cannot see from outside, so the oracle
        // here is prefix-validity; the acked-then-lost check runs in
        // the service-level disk chaos where acks are observable.
        let work = |fs: &SimFs| -> std::io::Result<()> {
            let fs: Arc<SimFs> = Arc::new(fs.clone());
            let mut j: Journal<Measurement> = Journal::create_on(fs, "out/j.jsonl")?;
            for p in [1usize, 2, 4] {
                j.append(&fake_measurement(p))?;
            }
            Ok(())
        };
        let check = |fs: &SimFs| -> Result<(), String> {
            let rec: Recovery<Measurement> =
                Journal::load_on(fs, "out/j.jsonl").map_err(|e| e.to_string())?;
            let procs: Vec<usize> = rec.entries.iter().map(|m| m.point.procs).collect();
            let want: Vec<usize> = vec![1, 2, 4][..procs.len()].to_vec();
            if procs == want {
                Ok(())
            } else {
                Err(format!("recovered {procs:?}, not a prefix of [1, 2, 4]"))
            }
        };
        let report = explore_crashes(work, check).unwrap();
        assert!(report.ops >= 9, "create + dir sync + 3 checksummed appends");
    }
}
