//! Where a result came from. The *fingerprint* (CPU count and model, kernel,
//! compiler) says which host and toolchain produced the numbers; two results
//! with different fingerprints are never compared. Commit and seed say which
//! code and which inputs.

use std::process::Command;

/// Trimmed standard output of a command, if it ran and succeeded.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
}

fn unknown() -> String {
    "unknown".to_string()
}

/// `(key, value)` pairs that must all match for two results to be comparable.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    vec![
        ("nproc", crate::workloads::load_threads().to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", output_of("rustc", &["-V"]).unwrap_or_else(unknown)),
    ]
}

/// The commit the benchmark was built from (`unknown` outside a git checkout).
pub fn commit() -> String {
    let here = env!("CARGO_MANIFEST_DIR");
    let hash = output_of("git", &["-C", here, "rev-parse", "--short=12", "HEAD"]);
    let dirty = output_of("git", &["-C", here, "status", "--porcelain"]).is_some();
    match hash {
        Some(hash) if dirty => format!("{hash}+uncommitted"),
        Some(hash) => hash,
        None => unknown(),
    }
}

/// Why two fingerprints must not be compared, if they differ.
pub fn mismatch(ours: &[(&'static str, String)], theirs: &[(String, String)]) -> Option<String> {
    for (key, value) in ours {
        let other = theirs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str());
        if other != Some(value.as_str()) {
            return Some(format!(
                "{key}: here `{value}`, there `{}`",
                other.unwrap_or("missing")
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_compare_key_by_key() {
        let ours = vec![("nproc", "2".to_string()), ("cpu", "x".to_string())];
        let same = vec![
            ("cpu".to_string(), "x".to_string()),
            ("nproc".to_string(), "2".to_string()),
        ];
        assert_eq!(mismatch(&ours, &same), None);
        let other = vec![
            ("cpu".to_string(), "x".to_string()),
            ("nproc".to_string(), "8".to_string()),
        ];
        assert!(mismatch(&ours, &other)
            .expect("differs")
            .starts_with("nproc"));
        assert!(mismatch(&ours, &[]).expect("missing").contains("missing"));
        assert_eq!(fingerprint().len(), 4);
    }
}
