//! Host facts and host-side measurements (peak resident memory).

use std::path::Path;
use std::process::Command;

/// Facts every result records, so numbers from different machines or
/// builds are never compared blindly.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub workers: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub git_rev: String,
    /// Whether the kernel lets the peak-RSS mark be reset; without it no
    /// run can report its own peak, and every run fails its checks.
    pub peak_rss_reset: bool,
}

impl HostFacts {
    pub fn new(workers: usize) -> Self {
        HostFacts {
            nproc: nproc(),
            workers,
            rustc: env!("REPOBENCH_RUSTC"),
            profile: env!("REPOBENCH_PROFILE"),
            git_rev: git_rev(),
            peak_rss_reset: reset_peak_rss(),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "# host nproc={} workers={} rustc=\"{}\" profile={} git={} peak_rss_reset={}",
            self.nproc, self.workers, self.rustc, self.profile, self.git_rev, self.peak_rss_reset
        )
    }
}

/// The revision of the repository the benchmark was built from, read when
/// it runs (a build script would keep reporting the revision it saw last).
/// Git must not walk above the repository root: a source export without
/// `.git` reports "unknown", not the revision of whatever contains it.
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let ceiling = root.parent().unwrap_or(root);
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mib`] reading covers only what runs after this call.
/// Returns false where the kernel does not offer the reset; a reading
/// would then cover the process lifetime so far.
///
/// Free heap pages are handed back to the kernel first: how many the
/// allocator keeps from earlier phases differs from process to process
/// (by about 7 MiB on the campaign), and would otherwise be counted as
/// the run's.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time; it only returns unused pages of the malloc arenas.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident memory (MiB) since start or the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

fn status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_peak_line() {
        let status = "Name:\tx\nVmHWM:\t   13548 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(13548));
        assert_eq!(status_kib(status, "VmPeak:"), None);
    }

    #[test]
    fn facts_render_every_field() {
        let line = HostFacts::new(1).render();
        for key in [
            "nproc=",
            "workers=1",
            "rustc=",
            "profile=",
            "git=",
            "peak_rss_reset=",
        ] {
            assert!(line.contains(key), "{line}");
        }
    }
}
