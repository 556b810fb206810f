//! Run provenance shared by the bench and eval bins: the git revision,
//! the process's peak RSS and the `--out` artefact path convention.
//!
//! The repository benchmark (`perfbench/`) imports [`git_rev`] and
//! [`peak_rss_bytes`] by this path, so both stay here.

/// The current git revision: `.git/HEAD` resolved through loose refs and
/// `packed-refs`, with no subprocess. `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD: the hash itself
    };
    if let Ok(loose) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().filter(|l| !l.starts_with(['#', '^'])).find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name.trim() == refname).then(|| hash.to_string())
    })
}

/// Peak resident set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` when the proc interface is unavailable
/// (non-Linux hosts) or unparsable. The high-water mark is per process,
/// which is why `bench_scale` runs every grid cell in a fresh child
/// process — each cell gets its own untainted peak.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The artefact path named by `--out <path>` (or its older alias
/// `--json <path>`) in `args`, falling back to `default`. Every
/// `bench_*`/eval bin resolves its output file through this one
/// convention.
pub fn out_path(args: &[String], default: &str) -> String {
    args.windows(2)
        .find(|w| w[0] == "--out" || w[0] == "--json")
        .map_or(default, |w| w[1].as_str())
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_path_honours_out_and_json_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(out_path(&args(&[]), "d.json"), "d.json");
        assert_eq!(out_path(&args(&["--smoke", "--out", "x.json"]), "d.json"), "x.json");
        assert_eq!(out_path(&args(&["--json", "y.json"]), "d.json"), "y.json");
        assert_eq!(out_path(&args(&["--out"]), "d.json"), "d.json"); // dangling flag
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_positive_high_water_mark() {
        let rss = peak_rss_bytes().expect("VmHWM on linux");
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
    }
}
