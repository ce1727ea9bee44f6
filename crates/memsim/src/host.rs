//! Facts the planner reads from the host it runs on.
//!
//! One so far: the size of the last-level cache. SpMV over a matrix
//! whose working set fits in it streams nothing from memory once the
//! cache is warm, so it is core-bound and every decode cycle a compressed
//! format adds is pure cost (see the planner's cache-resident regime).

use std::path::Path;
use std::sync::OnceLock;

/// Bytes of CPU 0's last-level cache: the highest-level cache that is
/// not an instruction cache, as `/sys/devices/system/cpu/cpu0/cache`
/// reports it. Read once per process; `None` when sysfs names no such
/// cache (non-Linux hosts, restricted containers).
pub fn llc_bytes() -> Option<usize> {
    static LLC: OnceLock<Option<usize>> = OnceLock::new();
    *LLC.get_or_init(|| llc_bytes_in(Path::new("/sys/devices/system/cpu/cpu0/cache")))
}

/// [`llc_bytes`] over a sysfs-shaped directory of `index*/{level,type,size}`
/// entries. Entries with a missing or unparsable field are skipped.
fn llc_bytes_in(dir: &Path) -> Option<usize> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|entry| {
            let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
            if read("type")?.trim() == "Instruction" {
                return None;
            }
            let level = read("level")?.trim().parse::<u32>().ok()?;
            Some((level, parse_cache_size(&read("size")?)?))
        })
        .max_by_key(|&(level, _)| level)
        .map(|(_, bytes)| bytes)
}

/// Parses a sysfs cache size such as `107520K`, `32M`, `2G` or a bare
/// byte count; anything else (or an overflowing size) is `None`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_and_without_suffixes() {
        assert_eq!(parse_cache_size("107520K"), Some(107_520 << 10));
        assert_eq!(parse_cache_size("32M\n"), Some(32 << 20));
        assert_eq!(parse_cache_size("2G"), Some(2 << 30));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        for garbage in ["", "K", "12Q", "-4K", "1.5M", "M32", "99999999999999999999G"] {
            assert_eq!(parse_cache_size(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn probe_picks_the_highest_non_instruction_level() {
        let dir = std::env::temp_dir().join(format!("llc-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (idx, level, kind, size) in [
            (0, "1", "Data", "48K"),
            (1, "1", "Instruction", "32K"),
            (2, "2", "Unified", "2048K"),
            (3, "3", "Unified", "307200K"),
            (4, "4", "Instruction", "64M"),
            (5, "5", "Unified", "garbage"),
        ] {
            let d = dir.join(format!("index{idx}"));
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("level"), format!("{level}\n")).unwrap();
            std::fs::write(d.join("type"), format!("{kind}\n")).unwrap();
            std::fs::write(d.join("size"), format!("{size}\n")).unwrap();
        }
        std::fs::create_dir_all(dir.join("power")).unwrap();
        assert_eq!(llc_bytes_in(&dir), Some(307_200 << 10));
        assert_eq!(llc_bytes_in(&dir.join("missing")), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
