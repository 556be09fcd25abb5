//! Where the harness lives and works: the repo root it measures, the
//! `benchmark/out/` directory everything it writes goes to, and the
//! `serve` binary it builds from source.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct Env {
    /// The checkout under test.
    pub root: PathBuf,
    /// `benchmark/out/`: span files, result files, temp roots. Ignored
    /// by `benchmark/.gitignore`.
    pub out: PathBuf,
}

impl Env {
    /// The driver runs the command from the checkout's root; a
    /// developer may run the binary from anywhere, in which case the
    /// checkout it was compiled in is used.
    pub fn detect() -> io::Result<Self> {
        let here = std::env::current_dir()?;
        let root = if is_checkout(&here) {
            here
        } else {
            let compiled_in = Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("the benchmark directory has a parent")
                .to_path_buf();
            if !is_checkout(&compiled_in) {
                return Err(io::Error::other(format!(
                    "neither {} nor {} is a checkout of the repository",
                    here.display(),
                    compiled_in.display()
                )));
            }
            compiled_in
        };
        let out = root.join("benchmark").join("out");
        std::fs::create_dir_all(out.join("tmp"))?;
        Ok(Env { root, out })
    }

    /// Base directory for [`crate::guard::TempRoot`]s.
    pub fn tmp(&self) -> PathBuf {
        self.out.join("tmp")
    }

    fn target_dir(&self) -> PathBuf {
        match std::env::var_os("CARGO_TARGET_DIR") {
            // Cargo resolves a relative CARGO_TARGET_DIR against its
            // working directory, which `build_serve` sets to the root.
            Some(dir) => self.root.join(dir),
            None => self.root.join("target"),
        }
    }

    /// Builds the real `serve` binary from the root workspace. Cargo
    /// build time is reported on stderr and is no part of `setup_s`.
    pub fn build_serve(&self) -> io::Result<PathBuf> {
        let started = std::time::Instant::now();
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "-p",
                "cpc-bench",
                "--bin",
                "serve",
            ])
            .current_dir(&self.root)
            .stdin(Stdio::null())
            // The result line owns stdout.
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "cargo build of serve failed: {status}"
            )));
        }
        let binary = self.target_dir().join("release").join("serve");
        if !binary.is_file() {
            return Err(io::Error::other(format!(
                "cargo built serve but {} is missing",
                binary.display()
            )));
        }
        eprintln!(
            "build: serve up to date in {:.2} s",
            started.elapsed().as_secs_f64()
        );
        Ok(binary)
    }
}

fn is_checkout(dir: &Path) -> bool {
    dir.join("benchmark/Cargo.toml").is_file() && dir.join("crates/workload").is_dir()
}
