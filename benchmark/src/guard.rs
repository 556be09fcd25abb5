//! Resources the harness must give back on every exit path, a panic
//! included: temporary roots inside `benchmark/out/` and the `serve`
//! child process. Both clean up in `Drop`, and the binary never calls
//! `process::exit` while one is alive.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ROOT: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under `base`, removed with everything in it when
/// dropped.
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    pub fn new(base: &Path, tag: &str) -> io::Result<Self> {
        let n = NEXT_ROOT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A child process that is killed and reaped when dropped.
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    pub fn new(child: Child) -> Self {
        ChildGuard { child }
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// Whether the child has already exited on its own.
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The live `serve` binary on a fresh root: spawned with its stdout
/// piped, ready once its `listening on` line names the chosen port.
pub struct ServeChild {
    pub guard: ChildGuard,
    pub addr: std::net::SocketAddr,
    /// Kept open so a later line on the child's stdout meets a pipe,
    /// not EPIPE.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServeChild {
    pub fn spawn(binary: &Path, root: &Path) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .args(["--quick", "--threads", "1", "--port", "0", "--root"])
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the guard owns the child: a malformed first
        // line must not leak the process.
        let guard = ChildGuard::new(child);
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = parse_listening_line(&line).ok_or_else(|| {
            io::Error::other(format!("serve did not announce its address: {line:?}"))
        })?;
        Ok(ServeChild {
            guard,
            addr,
            _stdout: stdout,
        })
    }
}

/// Extracts the address from `serve: listening on 127.0.0.1:PORT (root …)`.
pub fn parse_listening_line(line: &str) -> Option<std::net::SocketAddr> {
    line.split_once("listening on ")?
        .1
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) of a process in MB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(pid: u32) -> bool {
        // A reaped child has no /proc entry; a zombie would still have
        // one, which is exactly the leak `wait` in Drop prevents.
        Path::new(&format!("/proc/{pid}")).exists()
    }

    fn scratch() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp")
    }

    #[test]
    fn temp_root_and_child_are_gone_after_normal_drop() {
        let (path, pid);
        {
            let root = TempRoot::new(&scratch(), "guard-ok").unwrap();
            std::fs::write(root.path().join("f"), b"x").unwrap();
            let child = ChildGuard::new(Command::new("sleep").arg("600").spawn().unwrap());
            path = root.path().to_path_buf();
            pid = child.id();
            assert!(path.exists() && alive(pid));
        }
        assert!(!path.exists());
        assert!(!alive(pid));
    }

    #[test]
    fn temp_root_and_child_are_gone_after_a_panic_unwinds_through_them() {
        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let root = TempRoot::new(&scratch(), "guard-panic").unwrap();
            let child = ChildGuard::new(Command::new("sleep").arg("600").spawn().unwrap());
            *seen.lock().unwrap() = Some((root.path().to_path_buf(), child.id()));
            panic!("workload blew up");
        }));
        assert!(result.is_err());
        let (path, pid) = seen.lock().unwrap().take().unwrap();
        assert!(!path.exists());
        assert!(!alive(pid));
    }

    #[test]
    fn a_child_that_never_announces_an_address_is_reaped() {
        // `true` exits at once without printing: spawn must fail and
        // leave no process behind.
        let err = ServeChild::spawn(Path::new("true"), &scratch());
        assert!(err.is_err());
    }

    #[test]
    fn listening_line_parses_the_chosen_port() {
        let addr = parse_listening_line("serve: listening on 127.0.0.1:40123 (root /x/y)\n");
        assert_eq!(addr, Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(parse_listening_line("serve: cannot bind"), None);
    }

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb(None).unwrap() > 1.0);
    }
}
