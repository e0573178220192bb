//! What a result must carry to be comparable: the host's core count,
//! the SIMD kernel variant, the commit, plus the process's peak memory.

use std::process::Command;

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`
/// text.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        match parts.next() {
            Some("kB") | None => Some(value),
            Some(_) => None,
        }
    })
}

/// This process's peak resident set in MB (10^6 bytes).
///
/// # Errors
/// Fails where `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// Cores this process may run on.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The GEMM microkernel variant the process dispatches to.
#[must_use]
pub fn arch() -> &'static str {
    edgenn_tensor::simd::kernel_arch().name()
}

/// The commit under test: `PERFBENCH_COMMIT` if set, else what git
/// reports for the working directory, else `unknown` (a source export
/// is not a git repository).
#[must_use]
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
