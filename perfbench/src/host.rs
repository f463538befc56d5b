//! Where and on what a run measured: the pinned environment, the host's
//! core count and GEMM path, the source that was built, and peak memory.

use std::path::Path;

/// Prefix of every environment variable the workspace reads at run time
/// (`BPROM_QCACHE`, `BPROM_MODE`, `BPROM_ORACLE_REGIME`, `BPROM_THREADS`,
/// `BPROM_FAULT_PROFILE`, `BPROM_REGISTRY_MEM`, ...). A run with any of
/// them set would measure an override instead of the program's defaults.
pub const PROGRAM_ENV_PREFIX: &str = "BPROM_";

/// Names of the program-read environment variables that are set.
pub fn program_env_overrides() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(PROGRAM_ENV_PREFIX))
        .collect();
    set.sort();
    set
}

/// Logical cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The GEMM microkernel the tensor crate dispatches to on this CPU, by
/// the same precedence it uses: AVX-512F with AVX-512VL, then AVX2, then
/// the portable kernel.
pub fn gemm_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "generic"
}

/// The checked-out commit, read from `.git` when the tree is a git
/// work tree, else `"unknown"` (exported trees carry no history; the
/// source digest identifies them).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest over every file under `crates/` plus `Cargo.lock`, in
/// path order: identifies the program source that was measured.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&std::fs::read(file).unwrap_or_default());
        bytes.push(0);
    }
    format!("{:016x}", bprom_ckpt::fnv1a64(&bytes))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
