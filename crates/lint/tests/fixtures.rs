//! Known-answer tests for the lint catalog.
//!
//! Every fixture in `tests/fixtures/` is linted under the deny-all policy
//! and its diagnostics — suppressed ones included, rendered in the human
//! `file:line:col lint: message` format — must match the committed file
//! in `tests/fixtures/expected/` byte for byte. `*_fire.rs` fixtures must
//! produce at least one unsuppressed diagnostic; `*_clean.rs` fixtures
//! must produce none. Together the corpus covers every lint in the
//! catalog, firing and non-firing, including the tricky cases (lint
//! tokens inside string literals and comments must NOT fire).
//!
//! A fixture is linted under the path `fixtures/<name>` unless its first
//! line is a `//@ lint-path: <path>` directive, which pins it to that
//! workspace-relative path instead — used to exercise path-scoped policy
//! exemptions from both sides with identical source.
//!
//! To regenerate the expected corpus after an intentional change:
//! `HAEC_LINT_BLESS=1 cargo test -p haec-lint --test fixtures`.

use haec_lint::{lint_source_with_policy, Lint, Policy, ALL_LINTS};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().ok()?;
            name.ends_with(".rs").then_some(name)
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "fixture corpus is missing");
    names
}

/// The workspace-relative path a fixture is linted under. By default
/// `fixtures/<name>`, but a fixture whose first line reads
/// `//@ lint-path: <path>` pins itself to that path instead — this is how
/// the corpus proves *path-scoped* policy exemptions both ways from
/// identical source (see the `thread_worker_pool_*` pair).
fn lint_rel_path(name: &str, source: &str) -> String {
    source
        .lines()
        .next()
        .and_then(|line| line.trim().strip_prefix("//@ lint-path:"))
        .map(|path| path.trim().to_owned())
        .unwrap_or_else(|| format!("fixtures/{name}"))
}

fn render(name: &str) -> String {
    let source = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture readable");
    let rel = lint_rel_path(name, &source);
    lint_source_with_policy(&rel, &source, Policy::deny_all())
        .iter()
        .map(|d| format!("{d}\n"))
        .collect()
}

#[test]
fn fixtures_match_committed_expected_output() {
    let bless = std::env::var("HAEC_LINT_BLESS").is_ok();
    for name in fixture_names() {
        let got = render(&name);
        let expected_path = fixture_dir()
            .join("expected")
            .join(name.replace(".rs", ".txt"));
        if bless {
            std::fs::write(&expected_path, &got).expect("bless expected file");
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing {}; run with HAEC_LINT_BLESS=1",
                expected_path.display()
            )
        });
        assert_eq!(
            got, expected,
            "fixture {name} diverged from its expected output \
             (HAEC_LINT_BLESS=1 regenerates after an intentional change)"
        );
    }
}

#[test]
fn fire_fixtures_fire_and_clean_fixtures_do_not() {
    for name in fixture_names() {
        let source = std::fs::read_to_string(fixture_dir().join(name.as_str())).unwrap();
        let diags =
            lint_source_with_policy(&lint_rel_path(&name, &source), &source, Policy::deny_all());
        let unsuppressed = diags.iter().filter(|d| !d.suppressed).count();
        if name.ends_with("_fire.rs") {
            assert!(unsuppressed > 0, "{name} was expected to fire");
        } else {
            assert_eq!(
                unsuppressed, 0,
                "{name} was expected to come up clean: {diags:?}"
            );
        }
    }
}

/// The line that introduces the nondeterminism in each fire fixture whose
/// theme is a source reaching a decision: some unsuppressed diagnostic
/// must name it, whatever lint does the naming and wherever it sits.
const PINNED_SOURCE_LINES: [(&str, u32); 8] = [
    ("tainted_fingerprint_fire.rs", 6),
    ("unstable_order_sink_fire.rs", 6),
    ("relaxed_ordering_decision_fire.rs", 8),
    ("address_as_identity_fire.rs", 8),
    ("unordered_iteration_fire.rs", 6),
    ("shared_dedup_table_fire.rs", 22),
    ("stream_frontier_fire.rs", 10),
    ("thread_worker_pool_fire.rs", 10),
];

#[test]
fn fire_fixtures_name_their_pinned_source_line() {
    for (name, line) in PINNED_SOURCE_LINES {
        let source = std::fs::read_to_string(fixture_dir().join(name)).unwrap();
        let rel = lint_rel_path(name, &source);
        let needle = format!("{rel}:{line}");
        // `file:6` must not match inside `file:60`.
        let names_line = |text: &str| {
            text.match_indices(&needle)
                .any(|(at, _)| !text[at + needle.len()..].starts_with(|c: char| c.is_ascii_digit()))
        };
        let diags = lint_source_with_policy(&rel, &source, Policy::deny_all());
        assert!(
            diags
                .iter()
                .any(|d| !d.suppressed && names_line(&d.to_string())),
            "{name}: no unsuppressed diagnostic names line {line}: {diags:#?}"
        );
    }
}

#[test]
fn every_catalog_lint_has_a_firing_fixture() {
    let mut covered: Vec<Lint> = Vec::new();
    for name in fixture_names() {
        if !name.ends_with("_fire.rs") {
            continue;
        }
        let source = std::fs::read_to_string(fixture_dir().join(name.as_str())).unwrap();
        for d in lint_source_with_policy(&format!("fixtures/{name}"), &source, Policy::deny_all()) {
            if !covered.contains(&d.lint) {
                covered.push(d.lint);
            }
        }
    }
    for lint in ALL_LINTS {
        assert!(covered.contains(&lint), "no firing fixture covers {lint}");
    }
}

#[test]
fn tricky_fixture_is_completely_silent() {
    // Not just unsuppressed-clean: no diagnostics at all, suppressed or
    // otherwise — strings and comments are invisible to the linter.
    assert_eq!(render("tricky_strings_comments.rs"), "");
}

#[test]
fn tokenizer_torture_fixture_is_completely_silent() {
    // Shebang, nested raw strings, lifetime-vs-char, byte strings: every
    // lintable name in the fixture lives inside a literal, so any
    // diagnostic at all means the tokenizer lost track of a boundary.
    assert_eq!(render("tokenizer_torture_clean.rs"), "");
}
