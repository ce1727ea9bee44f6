//! Run context: the facts about the host that decide whether a run was
//! bandwidth-bound or cache-resident.

use spmv_bench::roofline::{measure_stream_bandwidth_with, StreamOpts};

/// LLC size assumed when sysfs reports none.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

/// Threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Size in bytes of the highest-level data or unified cache of CPU 0,
/// and whether it came from sysfs (`true`) or the fallback (`false`).
pub fn llc_bytes() -> (u64, bool) {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    match best {
        Some((_, bytes)) => (bytes, true),
        None => (FALLBACK_LLC_BYTES, false),
    }
}

/// Parses sysfs cache sizes such as `107520K` or `2M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// Resident set size of this process in MB (`VmRSS`), or `NaN` when
/// `/proc` is unavailable.
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// STREAM-triad bandwidth in GB/s over `nthreads` threads whose three
/// arrays together span `bytes` (pass at least four LLCs to measure
/// memory rather than cache).
pub fn stream_gbs(bytes: u64, nthreads: usize) -> f64 {
    let per_thread = (bytes / (24 * nthreads.max(1) as u64)).max(1 << 16) as usize;
    measure_stream_bandwidth_with(&StreamOpts {
        elems_per_thread: per_thread,
        reps: 5,
        threads: nthreads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
