//! Workspace walking and file classification.
//!
//! The classification encodes which parts of the repository can reach a
//! run transcript (see `ARCHITECTURE.md`):
//!
//! * **transcript-affecting** — the engine (`crates/ncc`), the protocol
//!   stack (`crates/primitives`), the drivers (`crates/core`,
//!   `crates/trees`, `crates/connectivity`), the verification substrate
//!   (`crates/graph`, `crates/graphgen`) and the facade (`src/`). All
//!   rules apply.
//! * **observer** — the bench harness (`crates/bench`), this linter, and
//!   `examples/`: code whose *job* is wall-clock measurement and
//!   demonstration. Only the ambient-entropy sources are checked.
//! * **exempt** — test code (`tests/`, `benches/`, `#[cfg(test)]`
//!   spans), the offline dependency shims (`crates/shims/`, third-party
//!   API surface, not first-party discipline) and the linter's own rule
//!   fixtures.

use crate::scan::{scan_file, FileClass, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a workspace check.
#[derive(Debug)]
pub struct CheckResult {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with("crates/shims/")
        || rel.contains("/fixtures/")
    {
        return FileClass::Exempt;
    }
    // Test and bench *directories* are exempt wholesale; `#[cfg(test)]`
    // spans inside library code are handled by the lexer.
    if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
        return FileClass::Exempt;
    }
    if rel.starts_with("crates/bench/")
        || rel.starts_with("crates/detlint/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
    {
        return FileClass::Observer;
    }
    FileClass::TranscriptAffecting
}

/// Walks `root` and checks every `.rs` file against its class.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn check_workspace(root: &Path) -> Result<CheckResult, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for rel in &files {
        let class = classify(rel);
        if class == FileClass::Exempt {
            continue;
        }
        let src = fs::read_to_string(root.join(rel))?;
        files_scanned += 1;
        findings.extend(scan_file(rel, &src, class));
    }
    Ok(CheckResult {
        findings,
        files_scanned,
    })
}

/// Recursively collects workspace-relative `.rs` paths, skipping
/// directories that can never hold first-party sources.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), std::io::Error> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".github" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert_eq!(
            classify("crates/ncc/src/shard.rs"),
            FileClass::TranscriptAffecting
        );
        assert_eq!(classify("src/lib.rs"), FileClass::TranscriptAffecting);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Observer);
        assert_eq!(classify("examples/chaos.rs"), FileClass::Observer);
        assert_eq!(
            classify("crates/ncc/tests/differential.rs"),
            FileClass::Exempt
        );
        assert_eq!(classify("crates/shims/rand/src/lib.rs"), FileClass::Exempt);
        assert_eq!(
            classify("crates/detlint/tests/fixtures/r1_fires.rs"),
            FileClass::Exempt
        );
        assert_eq!(classify("crates/bench/benches/trees.rs"), FileClass::Exempt);
    }
}
