//! The provenance stamp every result carries: which code, built how, on
//! how many cores, with which seed.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every field is required; [`Provenance::collect`] fails rather than
/// stamp a result with a gap.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git:<sha>` in a git checkout, otherwise `tree:<digest>` over the
    /// sources the benchmark builds.
    pub commit: String,
    /// `clean`/`dirty` in a git checkout, `no-git` otherwise.
    pub dirty: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// `RAYON_NUM_THREADS`, or `unset`.
    pub rayon_threads: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
    /// `rustc --version` of the compiler that built it.
    pub rustc: String,
    /// Workload seed.
    pub seed: u64,
    /// The frozen `cluster-open` offered rate.
    pub open_rate_sps: f64,
}

impl Provenance {
    /// Collects every field, run from the checkout root.
    pub fn collect(seed: u64, open_rate_sps: f64) -> Result<Provenance, String> {
        let (commit, dirty) = if Path::new(".git").exists() {
            let sha = git(&["rev-parse", "HEAD"])?;
            let status = git(&["status", "--porcelain", "--untracked-files=no"])?;
            let dirty = if status.is_empty() { "clean" } else { "dirty" };
            (format!("git:{sha}"), dirty.to_string())
        } else {
            (
                format!("tree:{:016x}", tree_digest()?),
                "no-git".to_string(),
            )
        };
        let nproc = std::thread::available_parallelism()
            .map_err(|e| format!("core count unavailable: {e}"))?
            .get();
        let rayon_threads =
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
        let profile = env!("PERFBENCH_PROFILE").to_string();
        let rustc = env!("PERFBENCH_RUSTC").to_string();
        for (field, value) in [("build profile", &profile), ("rustc version", &rustc)] {
            if value.is_empty() {
                return Err(format!("provenance field {field} is missing"));
            }
        }
        Ok(Provenance {
            commit,
            dirty,
            nproc,
            rayon_threads,
            profile,
            rustc,
            seed,
            open_rate_sps,
        })
    }

    /// One `key=value` line for the human-readable report.
    pub fn line(&self) -> String {
        format!(
            "commit={} tree={} nproc={} rayon_threads={} profile={} rustc=\"{}\" seed={} cluster_open_rate_sps={}",
            self.commit,
            self.dirty,
            self.nproc,
            self.rayon_threads,
            self.profile,
            self.rustc,
            self.seed,
            self.open_rate_sps
        )
    }

    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"tree\": \"{}\", \"nproc\": {}, \"rayon_threads\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \"cluster_open_rate_sps\": {:?}}}",
            self.commit,
            self.dirty,
            self.nproc,
            self.rayon_threads.replace(['"', '\\'], ""),
            self.profile,
            self.rustc.replace(['"', '\\'], ""),
            self.seed,
            self.open_rate_sps
        )
    }
}

fn git(args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!("git {} failed", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a (64-bit) over the relative path and contents of every file the
/// benchmark build reads, in sorted order: identifies the measured code in
/// a checkout without git metadata.
fn tree_digest() -> Result<u64, String> {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect(Path::new(root), &mut files)?;
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let name = file.to_string_lossy();
        for &b in name.as_bytes().iter().chain([0u8].iter()).chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(h)
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::symlink_metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_file() {
        out.push(path.to_path_buf());
    } else if meta.is_dir() {
        // Build outputs and the benchmark's own artifacts are not sources.
        if path == Path::new("perfbench/out") || path.file_name() == Some("target".as_ref()) {
            return Ok(());
        }
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
            collect(&entry.path(), out)?;
        }
    }
    Ok(())
}
