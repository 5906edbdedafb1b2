//! Fixture-driven rule tests: every rule has a fixture that fires and a
//! fixture whose justified allows silence it, plus false-positive guards
//! (test-only code, seeded RNGs, lookups, the journal files).
//!
//! Each `<name>.rs` fixture pairs with a `<name>.expected` file listing
//! the findings as `line:rule` (1-based line, `R1`..`R5`); `#` lines are
//! comments and a comment-only file means "scans clean".

use detlint::{scan_file, FileClass};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Scans a fixture and flattens the findings to comparable (line, rule)
/// pairs. The fixture's relative name is passed as the scan path so the
/// journal-file basename exemption sees the right filename.
fn scan_fixture(name: &str, class: FileClass) -> Vec<(usize, String)> {
    let src = fs::read_to_string(fixture_dir().join(name)).unwrap();
    let mut out: Vec<(usize, String)> = scan_file(name, &src, class)
        .iter()
        .map(|f| (f.line, f.rule.code().to_string()))
        .collect();
    out.sort();
    out
}

fn expected(name: &str) -> Vec<(usize, String)> {
    let text = fs::read_to_string(fixture_dir().join(name)).unwrap();
    let mut out: Vec<(usize, String)> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (line, code) = l.split_once(':').expect("expected `line:rule`");
            (line.parse().expect("line number"), code.to_string())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn fixtures_match_expected_findings() {
    use FileClass::{Observer, TranscriptAffecting};
    let cases: &[(&str, &str, FileClass)] = &[
        // Each rule: one fixture that fires...
        ("r1_fires.rs", "r1_fires.expected", TranscriptAffecting),
        ("r2_fires.rs", "r2_fires.expected", TranscriptAffecting),
        ("r3_fires.rs", "r3_fires.expected", TranscriptAffecting),
        ("r4_fires.rs", "r4_fires.expected", TranscriptAffecting),
        ("r5_fires.rs", "r5_fires.expected", TranscriptAffecting),
        // ...and one whose justified allows silence it.
        ("r1_allow.rs", "r1_allow.expected", TranscriptAffecting),
        ("r2_allow.rs", "r2_allow.expected", TranscriptAffecting),
        ("r3_allow.rs", "r3_allow.expected", TranscriptAffecting),
        ("r4_allow.rs", "r4_allow.expected", TranscriptAffecting),
        ("r5_allow.rs", "r5_allow.expected", TranscriptAffecting),
        // Class sensitivity: observers keep their wall clocks.
        ("r2_fires.rs", "r2_fires.observer.expected", Observer),
        // False-positive guards.
        (
            "fp_test_only.rs",
            "fp_test_only.expected",
            TranscriptAffecting,
        ),
        (
            "fp_seeded_rng.rs",
            "fp_seeded_rng.expected",
            TranscriptAffecting,
        ),
        (
            "fp_test_declared.rs",
            "fp_test_declared.expected",
            TranscriptAffecting,
        ),
        (
            "journal/shard.rs",
            "journal/shard.expected",
            TranscriptAffecting,
        ),
        // A reasonless suppression does not suppress.
        (
            "missing_reason.rs",
            "missing_reason.expected",
            TranscriptAffecting,
        ),
    ];
    for (src, exp, class) in cases {
        assert_eq!(
            scan_fixture(src, *class),
            expected(exp),
            "fixture {src} (as {class:?}) diverged from {exp}"
        );
    }
}

#[test]
fn reasonless_suppression_is_called_out() {
    let src = fs::read_to_string(fixture_dir().join("missing_reason.rs")).unwrap();
    let findings = scan_file("missing_reason.rs", &src, FileClass::TranscriptAffecting);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].message.contains("missing its justification"),
        "message should point at the empty reason: {}",
        findings[0].message
    );
}

#[test]
fn exempt_class_scans_nothing() {
    let src = fs::read_to_string(fixture_dir().join("r1_fires.rs")).unwrap();
    assert!(scan_file("r1_fires.rs", &src, FileClass::Exempt).is_empty());
}
