//! Host fingerprint and process memory.

use skynet_tensor::{fusion, parallel, simd};

/// What a result depends on besides the code: cores, the SIMD backend,
/// the fusion mode, the pool width, and the input seed.
pub fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "nproc={nproc} simd={} fusion={} pool_threads={} seed={seed}",
        simd::active().name(),
        fusion::mode_name(),
        parallel::num_threads(),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
