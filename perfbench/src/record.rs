//! The run record printed with every run: machine, revision, seed and
//! concurrency, so a figure is never separated from where it came from.

use std::path::Path;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU brand string.
    pub cpu: String,
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub rev: String,
}

impl RunRecord {
    /// Gather the record for a run started in `root`.
    pub fn gather(root: &Path) -> RunRecord {
        RunRecord { nproc: nproc(), cpu: cpu_model(), rev: git_rev(root) }
    }
}

/// Cores available to this process (client and worker counts follow it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read the revision from `.git` without starting a process.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model name the kernel reports.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process image, in MiB (`VmHWM`,
/// which starts afresh at `exec`, unlike `getrusage`'s `ru_maxrss`,
/// which would report the memory of the `cargo run` that started us).
/// 0 where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hand the free memory of every allocator arena back to the kernel and
/// restart [`peak_rss_mb`] from the current footprint, so that it covers
/// only what runs after this call. Set-up leaves freed memory resident
/// in the arenas of whichever threads happened to run its jobs, about
/// 2 MiB more in some runs than in others; without the trim, a later
/// peak reads that luck.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases memory no allocation holds.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to `clear_refs` resets `VmHWM` to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
