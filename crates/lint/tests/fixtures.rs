//! Fixture-corpus meta-tests: every rule fires on its minimal bad
//! fixture and stays quiet on the fixed twin; the lexer survives
//! adversarial Rust with zero false positives or negatives; and the
//! `atp-lint` binary's exit codes gate exactly when they should.

use atp_lint::{analyze_paths, find_workspace_root, Finding, Severity, RULES};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(rule, bad fixture, fixed twin)` — one pair per rule in [`RULES`].
/// The coverage test fails if a rule is added without a pair here.
const PAIRS: &[(&str, &str, &str)] = &[
    (
        "no-wall-clock",
        "no-wall-clock/bad.rs",
        "no-wall-clock/fixed.rs",
    ),
    (
        "no-ambient-randomness",
        "no-ambient-randomness/bad.rs",
        "no-ambient-randomness/fixed.rs",
    ),
    (
        "no-random-state",
        "no-random-state/bad.rs",
        "no-random-state/fixed.rs",
    ),
    (
        "no-external-deps",
        "no-external-deps/bad/Cargo.toml",
        "no-external-deps/fixed/Cargo.toml",
    ),
    (
        "unwrap-policy",
        "unwrap-policy/bad.rs",
        "unwrap-policy/fixed.rs",
    ),
    (
        "pub-api-docs",
        "pub-api-docs/bad.rs",
        "pub-api-docs/fixed.rs",
    ),
    (
        "no-io-in-core",
        "no-io-in-core/bad.rs",
        "no-io-in-core/fixed.rs",
    ),
    (
        "bad-directive",
        "bad-directive/bad.rs",
        "bad-directive/fixed.rs",
    ),
    (
        "unused-suppression",
        "unused-suppression/bad.rs",
        "unused-suppression/fixed.rs",
    ),
    (
        "crate-layering",
        "crate-layering/bad.rs",
        "crate-layering/fixed.rs",
    ),
    (
        "no-panic-hotpath",
        "no-panic-hotpath/bad.rs",
        "no-panic-hotpath/fixed.rs",
    ),
    ("prof-gate", "prof-gate/bad.rs", "prof-gate/fixed.rs"),
    ("lock-order", "lock-order/bad.rs", "lock-order/fixed.rs"),
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

fn analyze_fixture(rel: &str) -> Vec<Finding> {
    let path = fixtures_dir().join(rel);
    assert!(path.exists(), "fixture missing: {}", path.display());
    let (findings, _) = analyze_paths(&workspace_root(), &[path]).expect("fixture scan");
    findings
}

#[test]
fn every_rule_has_a_fixture_pair() {
    for rule in RULES {
        assert!(
            PAIRS.iter().any(|(r, _, _)| *r == rule.name),
            "rule `{}` has no fixture pair — add bad/fixed twins under crates/lint/fixtures/",
            rule.name
        );
    }
    assert_eq!(
        PAIRS.len(),
        RULES.len(),
        "stale fixture pair for a removed rule"
    );
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for (rule, bad, _) in PAIRS {
        let findings = analyze_fixture(bad);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "`{rule}` did not fire on {bad}: {findings:?}"
        );
        // Minimality: a bad fixture demonstrates its own rule, nothing else.
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{bad} is not minimal — unrelated `{}` fired: {findings:?}",
                f.rule
            );
        }
    }
}

#[test]
fn every_fixed_twin_is_silent() {
    for (rule, _, fixed) in PAIRS {
        let findings = analyze_fixture(fixed);
        assert!(
            findings.is_empty(),
            "fixed twin for `{rule}` still fires: {findings:?}"
        );
    }
}

/// Scenario fixtures beyond the one-pair-per-rule corpus: concrete
/// violation shapes worth pinning that reuse an existing rule (so they
/// cannot live in [`PAIRS`], whose length must equal `RULES.len()`).
const SCENARIO_PAIRS: &[(&str, &str, &str)] = &[(
    "no-random-state",
    "no-random-state-asid/bad.rs",
    "no-random-state-asid/fixed.rs",
)];

#[test]
fn scenario_fixtures_fire_and_their_twins_are_silent() {
    for (rule, bad, fixed) in SCENARIO_PAIRS {
        let findings = analyze_fixture(bad);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "`{rule}` did not fire on {bad}: {findings:?}"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{bad} is not minimal — unrelated `{}` fired: {findings:?}",
                f.rule
            );
        }
        let findings = analyze_fixture(fixed);
        assert!(
            findings.is_empty(),
            "fixed twin for `{rule}` scenario still fires: {findings:?}"
        );
    }
}

#[test]
fn lexer_adversarial_corpus_has_zero_false_positives() {
    let findings = analyze_fixture("lexer/adversarial.rs");
    assert!(
        findings.is_empty(),
        "banned names inside comments/literals leaked through: {findings:?}"
    );
}

#[test]
fn lexer_finds_violations_hidden_among_literals() {
    let findings = analyze_fixture("lexer/hidden_violations.rs");
    let mut got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    got.sort_unstable();
    let mut want = vec![
        ("no-wall-clock", 8),
        ("no-ambient-randomness", 10),
        ("unwrap-policy", 12),
        ("no-random-state", 14),
        ("no-random-state", 14),
    ];
    want.sort_unstable();
    assert_eq!(got, want, "false negative or spurious span: {findings:?}");
}

fn run_lint(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_atp-lint"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn atp-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_gates_on_each_bad_fixture_and_passes_each_fixed_twin() {
    for (rule, bad, fixed) in PAIRS {
        let bad = fixtures_dir().join(bad);
        let fixed = fixtures_dir().join(fixed);
        let (ok, _) = run_lint(&["--deny-warnings", bad.to_str().expect("utf-8 path")]);
        assert!(!ok, "atp-lint exited 0 on bad fixture for `{rule}`");
        let (ok, out) = run_lint(&["--deny-warnings", fixed.to_str().expect("utf-8 path")]);
        assert!(ok, "atp-lint gated on fixed twin for `{rule}`:\n{out}");
    }
}

#[test]
fn binary_emits_the_json_schema() {
    let bad = fixtures_dir().join("no-wall-clock/bad.rs");
    let (ok, out) = run_lint(&[
        "--format",
        "json",
        "--deny-warnings",
        bad.to_str().expect("utf-8 path"),
    ]);
    assert!(!ok, "no-wall-clock is a finding; json mode must still gate");
    assert!(out.contains("\"schema\": \"atp-lint-v1\""), "{out}");
    assert!(out.contains("\"rule\": \"no-wall-clock\""), "{out}");
    assert!(out.contains("no-wall-clock/bad.rs"), "{out}");
}

#[test]
fn binary_self_hosts_clean_on_the_workspace() {
    let (ok, out) = run_lint(&["--deny-warnings"]);
    assert!(
        ok,
        "the workspace must lint clean (self-hosting included):\n{out}"
    );
}

/// The checked-in manifest over the whole workspace: every `[hotpath]`
/// entry resolves (a stale one is an error on `atp-lint.toml`), and no
/// hot-path allow is unused — the batch retire loop's allows would be,
/// if the entry stopped reaching it.
#[test]
fn checked_in_manifest_resolves_every_hotpath_entry() {
    let root = workspace_root();
    let (findings, _) = analyze_paths(&root, std::slice::from_ref(&root)).expect("workspace scan");
    let hot: Vec<&Finding> = findings
        .iter()
        .filter(|f| {
            f.path == "atp-lint.toml"
                || f.rule == "no-panic-hotpath"
                || f.rule == "unused-suppression"
        })
        .collect();
    assert!(hot.is_empty(), "{hot:?}");
}

/// A stale `[hotpath]` entry fails a whole-workspace scan and stays quiet
/// in a partial one.
#[test]
fn stale_hotpath_entry_fails_a_whole_workspace_scan() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale-hotpath");
    let src = root.join("crates/replacement/src");
    std::fs::create_dir_all(&src).expect("create temporary workspace");
    std::fs::write(
        root.join("atp-lint.toml"),
        "[hotpath]\nentries = [\"CacheSim::access\", \"Tlb::gone\"]\ncrates = [\"replacement\"]\n",
    )
    .expect("write manifest");
    let lib = src.join("lib.rs");
    std::fs::write(
        &lib,
        "//! A cache.\n\n/// A cache.\npub struct CacheSim;\n\nimpl CacheSim {\n    /// Accesses.\n    pub fn access(&mut self) {}\n}\n",
    )
    .expect("write source");

    let (whole, _) = analyze_paths(&root, std::slice::from_ref(&root)).expect("whole scan");
    let stale: Vec<&Finding> = whole.iter().filter(|f| f.path == "atp-lint.toml").collect();
    assert_eq!(stale.len(), 1, "{whole:?}");
    assert_eq!(stale[0].severity, Severity::Error);
    assert_eq!(stale[0].line, 2, "points at the entries line");
    assert!(stale[0].message.contains("`Tlb::gone`"), "{stale:?}");

    let (partial, _) = analyze_paths(&root, &[lib]).expect("partial scan");
    assert!(
        partial.iter().all(|f| f.path != "atp-lint.toml"),
        "{partial:?}"
    );
}
