//! The self-hosting gate: the linter must hold itself to the same
//! standard it holds the rest of the workspace to.
//!
//! `lint_workspace` over the real repository root must come back clean
//! (every remaining diagnostic suppressed, with a reason, and every
//! suppression leg alive — `dead-allow` polices the latter), and the
//! scanned file list must include this crate's own sources, so "clean"
//! cannot be achieved by quietly skipping the linter.

use haec_lint::{lint_source, lint_workspace, Lint};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("repo root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace scan");
    let loud: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| !d.suppressed)
        .collect();
    assert!(
        report.is_clean(),
        "workspace has unsuppressed findings:\n{loud:#?}"
    );
}

#[test]
fn the_linter_lints_itself() {
    let report = lint_workspace(&repo_root()).expect("workspace scan");
    for own in [
        "crates/lint/src/driver.rs",
        "crates/lint/src/resolve.rs",
        "crates/lint/src/tokenizer.rs",
        // Bench targets are policed too (`lints.rs` has held a policy for
        // this one since the streaming checkers landed).
        "crates/bench/benches/stream.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == own),
            "self-hosting hole: {own} was not scanned (scanned {} files)",
            report.files.len()
        );
    }
}

#[test]
fn every_workspace_suppression_carries_a_reason() {
    // `malformed-allow` already rejects reason-less allows at parse time;
    // this test pins the end state: nothing fires, and the one thing that
    // is suppressed got there through a well-formed, justified allow.
    let report = lint_workspace(&repo_root()).expect("workspace scan");
    assert_eq!(report.unsuppressed().count(), 0);
    // The one sanctioned finding today: span wall-clock telemetry into
    // the run report, zeroed by `to_json_normalized` before
    // byte-comparison.
    let suppressed: Vec<_> = report.diagnostics.iter().filter(|d| d.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "{suppressed:#?}");
    let d = suppressed[0];
    assert_eq!(
        (d.file.as_str(), d.lint),
        ("crates/sim/src/obs/report.rs", Lint::WallClock),
        "{d:?}"
    );
}

#[test]
fn planted_sources_fire_where_no_sink_reaches() {
    // The service driver is where a run's report tallies and the
    // network's delivery order are decided, and nothing in it is a sink by
    // name: a source planted there reached no flow rule. A ban fires on
    // the line itself.
    let rel = "crates/sim/src/service.rs";
    let source = std::fs::read_to_string(repo_root().join(rel)).expect("service.rs readable");
    let lines: Vec<&str> = source.lines().collect();
    assert!(
        lint_source(rel, &source).is_empty(),
        "service.rs is clean as committed"
    );
    let plants = [
        (
            "let planted = &0u8 as *const u8 as usize;",
            Lint::AddressObservation,
        ),
        (
            "let planted = [3u32, 1, 2].as_ptr() as usize;",
            Lint::AddressObservation,
        ),
        (
            "let planted = std::sync::atomic::AtomicU64::new(0).load(std::sync::atomic::Ordering::Relaxed);",
            Lint::RelaxedAtomic,
        ),
        (
            "let mut planted = [(3u32, 0u8), (1, 1)]; planted.sort_unstable_by_key(|p| p.0);",
            Lint::UnstableSort,
        ),
        (
            "let planted = std::thread::current().id();",
            Lint::AmbientEntropy,
        ),
    ];
    for host in ["fn exec_op(", "fn witness_delta("] {
        let header = lines
            .iter()
            .position(|l| l.contains(host))
            .unwrap_or_else(|| panic!("{host} not found in {rel}"));
        assert!(lines[header].ends_with('{'), "{host} header is one line");
        for (plant, lint) in plants {
            let mut mutated = lines.clone();
            mutated.insert(header + 1, plant);
            let got = lint_source(rel, &mutated.join("\n"));
            assert_eq!(got.len(), 1, "{host} {plant}: {got:#?}");
            let planted_line = u32::try_from(header + 2).expect("line fits");
            assert_eq!(
                (got[0].lint, got[0].line, got[0].suppressed),
                (lint, planted_line, false),
                "{host} {plant}"
            );
        }
    }
}
